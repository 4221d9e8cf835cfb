"""The command-line scripts under scripts/, run in-process."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_oracle_agreement_has_no_disagreements(capsys):
    """The lazy total-order, partial-order and preference-CNF oracles and
    the explicit extreme-type lists give the same EORE, SIRE and AARE
    answers and optimal values on 200 random games of each kind, and the
    verifier accepts every yes profile of either route.  Every order answer
    the script asks for passes its flow certificate, and none fails.  The
    boxed distribution-order oracle gives the amount of an unboxed LP of
    the same polytope, with a block (s_o, u(o)) for each u(o) <= 1, on
    every answer the script checks."""
    spec = importlib.util.spec_from_file_location(
        "oracle_agreement", SCRIPTS / "oracle_agreement.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    code = script.main(["--trials", "200", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    for kind in ("total_order", "partial_order", "preference_cnf"):
        assert f"{kind}: 200 games x 3 queries: 0 disagreements" in out
        assert re.search(rf"{kind}: 200 games x 3 queries: 0 disagreements, [1-9]\d* yes profiles verified", out)
        assert re.search(rf"{kind}: .* order answers certified, 0 certificate failures", out)
    for kind in ("total_order", "partial_order"):
        assert re.search(rf"{kind}: .* [1-9]\d* order answers certified", out)
    assert "distribution_order: 200 games x 3 queries: 0 disagreements" in out
    assert re.search(r"distribution_order: .* [1-9]\d* distribution answers checked", out)
