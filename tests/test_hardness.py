import random
from fractions import Fraction

import pytest

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
from ordineq.typespaces import satisfies_space

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
