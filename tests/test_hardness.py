import itertools
import random
from fractions import Fraction

import pytest

from conftest import FEASIBLE, GE, LE, MAX, LinearProgram, constraint, lp_solve, satisfies_space
from ordineq import equilibrium, hardness
from ordineq.cli import EXIT_BAD_INPUT, run_cli
from ordineq.equilibrium import best_cnf_model
from ordineq.errors import ParseError, ValidationError
from ordineq.games import PreferenceCnf, TotalOrder
from ordineq.hardness import (
    CnfFormula,
    check_cnf_existence,
    outcome_for_var,
    parse_dimacs,
    reduce_sat,
    sat_brute,
)

ONE = Fraction(1)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_dimacs_basic():
    text = "c a comment\np cnf 2 2\n1 -2 0\n-1 0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 2
    assert f.clauses == ((1, -2), (-1,))


def test_parse_dimacs_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_dimacs("p dnf 2 1\n1 0\n")


def test_parse_dimacs_rejects_out_of_range_literal():
    with pytest.raises((ParseError, ValidationError)):
        parse_dimacs("p cnf 1 1\n2 0\n")


def test_parse_dimacs_rejects_clause_count_mismatch():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 2\n1 0\n")


def test_parse_dimacs_rejects_a_second_problem_line():
    """A second header is an error that names its line and quotes it, not a
    silent replacement of the first."""
    with pytest.raises(ParseError, match=r"line 3: second problem line 'p cnf 2 1'"):
        parse_dimacs("p cnf 1 1\n1 0\np cnf 2 1\n")
    with pytest.raises(ParseError, match=r"line 2: second problem line 'p cnf 1 1'"):
        parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")


@pytest.mark.parametrize(
    "text",
    ["p cnf 10 1\n1_0 0\n", "p cnf 1 1\n\u0661 0\n", "p cnf 1 1\n+1 0\n", "p cnf 1_0 1\n1 0\n", "p cnf \u0661 1\n1 0\n"],
    ids=["underscore", "arabic-indic", "plus", "header-underscore", "header-arabic-indic"],
)
def test_parse_dimacs_takes_only_ascii_integers(text):
    with pytest.raises(ParseError):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text, message",
    [("p cnf 1 1\n" + "9" * 5000 + " 0\n", "literal too long"), ("p cnf " + "9" * 5000 + " 1\n1 0\n", "count too long")],
    ids=["literal", "header-count"],
)
def test_parse_dimacs_reports_a_too_long_number(monkeypatch, tmp_path, capsys, text, message):
    """A literal or a header count of 5,000 digits, past Python's int/str
    digit limit, is a ParseError that says it is too long and quotes only
    the start of its line; the number is never read, so `reduce_sat`,
    behind the CLI, never sees it (exit 65)."""
    with pytest.raises(ParseError, match=message) as err:
        parse_dimacs(text)
    assert len(str(err.value)) < 120
    dimacs = tmp_path / "long.cnf"
    dimacs.write_text(text)
    reduced = []
    monkeypatch.setattr(hardness, "reduce_sat", reduced.append)
    assert run_cli(["reduce-sat", "--dimacs", str(dimacs), "--out", str(tmp_path / "out.game")]) == EXIT_BAD_INPUT
    assert reduced == []
    assert message in capsys.readouterr().err


def test_reduce_sat_refuses_a_formula_over_its_cap(monkeypatch, tmp_path, capsys):
    """A header that declares more variables than `REDUCE_SAT_CAP`, at most
    100,000, ends `reduce-sat` in exit 65 before any game is built, and
    writes no --out file."""
    cap = hardness.REDUCE_SAT_CAP
    assert cap <= 100_000
    built = []
    monkeypatch.setattr(hardness, "GameForm", lambda *args, **kwargs: built.append(args))
    dimacs = tmp_path / "huge.cnf"
    out = tmp_path / "out.game"
    for m in (200_000_000, cap + 1):
        dimacs.write_text(f"p cnf {m} 0\n")
        assert run_cli(["reduce-sat", "--dimacs", str(dimacs), "--out", str(out)]) == EXIT_BAD_INPUT
        assert built == [] and not out.exists()
        assert f"{m} variables exceed the reduction cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# brute-force SAT


def test_sat_brute_contradiction():
    assert not sat_brute(CnfFormula(1, ((1,), (-1,))))


def test_sat_brute_satisfiable():
    assert sat_brute(CnfFormula(2, ((1, -2), (-1,))))


def test_sat_brute_empty_clause_unsat():
    assert not sat_brute(CnfFormula(1, ((),)))


def test_sat_brute_no_clauses_sat():
    assert sat_brute(CnfFormula(1, ()))


# ---------------------------------------------------------------------------
# the reduction


def test_reduction_shape():
    for m, clauses in ((1, ((1,),)), (3, ((1, -2), (3,))), (4, ())):
        f = CnfFormula(m, clauses)
        game, spaces = reduce_sat(f)
        assert len(game.action_sets[0]) == m + 2
        assert len(game.action_sets[1]) == 2
        assert len(game.outcomes) == m + 2
        assert isinstance(spaces[0], PreferenceCnf)
        assert isinstance(spaces[1], TotalOrder)


def test_reduction_literal_substitution():
    f = CnfFormula(2, ((1, -2), (-1,)))
    _, spaces = reduce_sat(f)
    cnf = spaces[0]
    assert cnf.clauses == (
        ((outcome_for_var(1), "o1"), ("o0", outcome_for_var(2))),
        (("o0", outcome_for_var(1)),),
    )


def test_reduction_outcome_wiring():
    f = CnfFormula(2, ())
    game, _ = reduce_sat(f)
    rows, cols = game.action_sets
    assert game.outcome_of((rows[0], cols[0])) == "o0"
    assert game.outcome_of((rows[0], cols[1])) == "o0"
    assert game.outcome_of((rows[1], cols[0])) == "o1"
    assert game.outcome_of((rows[1], cols[1])) == "o1"
    for k in (1, 2):
        assert game.outcome_of((rows[1 + k], cols[0])) == "o1"
        assert game.outcome_of((rows[1 + k], cols[1])) == outcome_for_var(k)


def test_unsat_formula_yields_definitive_equilibrium():
    f = CnfFormula(1, ((1,), (-1,)))
    game, spaces = reduce_sat(f)
    res = check_cnf_existence(game, spaces)
    assert res.answer == "yes_over_extreme_types"
    assert res.definitive
    # the top-left cell (outcome o0) can carry all the mass
    rows, cols = game.action_sets
    assert res.profile is not None
    assert sum(res.profile.p.values()) == ONE


def test_satisfiable_formula_yields_definitive_no():
    f = CnfFormula(1, ((1,),))
    game, spaces = reduce_sat(f)
    res = check_cnf_existence(game, spaces)
    assert res.answer == "no"
    assert res.definitive


def test_formula_with_an_empty_clause_yields_definitive_equilibrium():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n0\n")
    game, spaces = reduce_sat(f)
    res = check_cnf_existence(game, spaces)
    assert res.answer == "yes_over_extreme_types"
    assert res.definitive


def test_formulas_beyond_twenty_outcomes_get_an_answer():
    """24 variables give 26 outcomes and 2^26 candidate 0/1 vectors; the
    lazy oracle answers without listing them."""
    m = 24
    contradiction = CnfFormula(m, ((1,), (-1,)) + tuple((v, -v) for v in range(2, m + 1)))
    res = check_cnf_existence(*reduce_sat(contradiction))
    assert (res.answer, res.definitive) == ("yes_over_extreme_types", True)
    all_true = CnfFormula(m, tuple((v,) for v in range(1, m + 1)))
    res = check_cnf_existence(*reduce_sat(all_true))
    assert (res.answer, res.definitive) == ("no", True)


def test_vacuous_formula_is_satisfiable_hence_no():
    f = CnfFormula(1, ())
    game, spaces = reduce_sat(f)
    assert sat_brute(f)
    res = check_cnf_existence(game, spaces)
    assert res.answer == "no"


def test_enumerated_types_satisfy_the_formula_space():
    from ordineq.typespaces import enumerate_extreme_types

    f = CnfFormula(3, ((1, -2), (2, 3), (-3,)))
    game, spaces = reduce_sat(f)
    vectors = enumerate_extreme_types(spaces[0], game.outcomes)
    assert vectors  # all-zero always qualifies
    for u in vectors:
        assert satisfies_space(u, spaces[0], game.outcomes)


def _random_formula(rng: random.Random, max_vars=4, max_clauses=4):
    m = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        size = rng.randint(1, min(3, m))
        variables = rng.sample(range(1, m + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(m, tuple(clauses))


def test_reduction_iff_on_random_formulas():
    rng = random.Random(37)
    for trial in range(60):
        f = _random_formula(rng)
        game, spaces = reduce_sat(f)
        res = check_cnf_existence(game, spaces)
        expected = "no" if sat_brute(f) else "yes_over_extreme_types"
        assert res.answer == expected, f"trial {trial}: {f}"
        assert res.definitive


# ---------------------------------------------------------------------------
# the 0/1 models attain every zero-sum gain's maximum over the CNF set


def _branch_maximum(clauses, outcomes, gain):
    """The largest exact-LP optimum of gain·u over C_beta ∩ [0,1]^O across
    the branches beta that pick one atom (a, b), u_a >= u_b, per clause;
    None when there is no branch."""
    idx = {o: k for k, o in enumerate(outcomes)}
    n = len(outcomes)
    bounds = [constraint([ONE if j == k else ZERO for j in range(n)], LE, ONE) for k in range(n)]
    objective = (tuple(gain[o] for o in outcomes), MAX)
    best = None
    for beta in set(itertools.product(*clauses)):
        rows = []
        for a, b in set(beta):
            row = [ZERO] * n
            row[idx[a]] += ONE
            row[idx[b]] -= ONE
            rows.append(constraint(row, GE, ZERO))
        out = lp_solve(LinearProgram(n, tuple(rows + bounds), objective))
        assert out.status == FEASIBLE
        if best is None or out.objective_value > best:
            best = out.objective_value
    return best


def test_cnf_models_attain_the_maximum_over_the_whole_cnf_set():
    """On 400 random CNFs over 2-6 outcomes with 0-4 clauses of 1-3 atoms,
    each also with an empty clause added and with a repeated atom, and a
    zero-sum rational gain: the best model's gain, or 0 when
    `best_cnf_model` finds none, is the largest LP optimum over the
    polytopes C_beta ∩ [0,1]^O.  A CNF with an empty clause has no branch,
    and neither side reports a gain."""
    rng = random.Random(4242)

    def atom():
        return rng.choice(outcomes), rng.choice(outcomes)

    positive = 0
    for _ in range(400):
        outcomes = tuple(f"o{k}" for k in range(rng.randint(2, 6)))
        clauses = tuple(
            tuple(atom() for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(0, 4))
        )
        repeated = atom()
        gain = {o: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for o in outcomes[1:]}
        gain[outcomes[0]] = -sum(gain.values())
        for cnf in (clauses, clauses + ((),), clauses + ((repeated, repeated), (repeated,))):
            hit = best_cnf_model(PreferenceCnf(cnf), outcomes, gain)
            lp_best = _branch_maximum(cnf, outcomes, gain)
            if any(not clause for clause in cnf):
                assert hit is None and lp_best is None
                continue
            assert (ZERO if hit is None else hit[0]) == lp_best
            positive += hit is not None
    assert positive > 200


def test_best_cnf_model_searches_1200_outcomes():
    """The search goes one level deeper per outcome, so 1,200 outcomes must
    not run out of stack.  Weight 2 on o0 and -1 on o1, and the chain of
    clauses (o1 >= o0), (o2 >= o1), ...: u(o0) = 1 forces every u to 1, so
    the optimum is 1, at the all-ones model."""
    outcomes = tuple(f"o{k}" for k in range(1200))
    weights = {o: {0: 2, 1: -1}.get(k, 0) for k, o in enumerate(outcomes)}
    chain = tuple(((b, a),) for a, b in zip(outcomes, outcomes[1:]))
    assert best_cnf_model(PreferenceCnf(chain), outcomes, weights) == (1, dict.fromkeys(outcomes, 1))


def test_unnamed_outcomes_take_their_preferred_value():
    """On 300 random CNFs padded with outcomes that no clause names, and
    integer or rational weights: each unnamed outcome's bit in the best
    model is 1 if its weight is positive, else 0, and the value is the
    largest sum over the models, found by listing every 0/1 vector."""
    rng = random.Random(17)
    positive = 0
    for _ in range(300):
        named = [f"n{k}" for k in range(rng.randint(1, 4))]
        outcomes = named + [f"p{k}" for k in range(rng.randint(1, 4))]
        rng.shuffle(outcomes)
        outcomes = tuple(outcomes)
        cnf = PreferenceCnf(
            tuple(
                tuple((rng.choice(named), rng.choice(named)) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            )
        )
        den = rng.choice((1, 3))
        weights = {o: Fraction(rng.randint(-3, 3), den) for o in outcomes}
        if den == 1:
            weights = {o: int(w) for o, w in weights.items()}
        models = (
            dict(zip(outcomes, bits))
            for bits in itertools.product((0, 1), repeat=len(outcomes))
            if satisfies_space(dict(zip(outcomes, bits)), cnf, outcomes)
        )
        brute = max(sum(weights[o] * u[o] for o in outcomes) for u in models)
        hit = best_cnf_model(cnf, outcomes, weights)
        if brute <= 0:
            assert hit is None
            continue
        positive += 1
        assert hit[0] == brute
        assert satisfies_space(hit[1], cnf, outcomes)
        assert all(hit[1][o] == int(weights[o] > 0) for o in outcomes if o[0] == "p")
    assert positive > 150


def test_reductions_search_each_gain_once_per_call(monkeypatch):
    """Solving the reductions of 20 random 3-CNFs over 6-8 variables asks
    the row player's CNF oracle about many more deviations than it
    searches: the m + 1 deviations that meet o1 share their gain vector,
    and `best_cnf_model` runs at most once per distinct gain in each call.
    The answers are still `not sat_brute`."""
    rng = random.Random(53)
    searched, asked = [], []
    search, make_oracle = equilibrium.best_cnf_model, equilibrium.make_oracle

    def counted_search(spec, outcomes, weights):
        searched[-1].append(tuple(weights[o] for o in outcomes))
        return search(spec, outcomes, weights)

    def counted_oracle(spec, outcomes):
        oracle = make_oracle(spec, outcomes)
        if not isinstance(spec, PreferenceCnf):
            return oracle

        def ask(gain):
            asked[-1] += 1
            return oracle(gain)

        return ask

    monkeypatch.setattr(equilibrium, "best_cnf_model", counted_search)
    monkeypatch.setattr(equilibrium, "make_oracle", counted_oracle)
    answers = set()
    for _ in range(20):
        m = rng.randint(6, 8)
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, m + 1), 3))
            for _ in range(rng.randint(2 * m, 5 * m))
        )
        formula = CnfFormula(m, clauses)
        searched.append([])
        asked.append(0)
        res = check_cnf_existence(*reduce_sat(formula))
        assert (res.answer != "no") == (not sat_brute(formula))
        assert len(set(searched[-1])) == len(searched[-1])
        answers.add(res.answer)
    assert sum(map(len, searched)) < sum(asked) / 2
    assert answers == {"no", "yes_over_extreme_types"}
