"""Golden reports: the CLI's default runs must keep reproducing the committed
CSVs in tests/golden/ under verify.compare_reports_csv at rtol 1e-9.

The goldens are the default ``volpot verify`` report and ``volpot converge``
and ``volpot modulus`` at seed 0, and two ``volpot verify`` reports of the
configs kept next to them: the Laplace kernel on the 3D unit ball
(``ball3d.cfg``) and the screened kernel on a cosine star
(``star_screened.cfg``); both include ``derivative_recursion``, the row that
runs gradients.  A ``volpot eval`` golden (``star_near.cfg``, written to
``star_near_eval.csv``) pins the star rule near the boundary, which no
report reaches: screened values of a bump density at offsets of 1e-2 and
1e-4 on both sides of a cosine star, from the flux rays to the graded
boundary rules (``tests/test_star_flux.py`` checks that rule against
Green's representation formula at the same points).  Regenerate
them only for a change that is meant to move report values, and say so
where the change is recorded.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from volpot.cli import main
from volpot.verify import _PARAM_SPLIT, compare_reports_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
# golden file -> (CLI arguments, the file the run writes)
RUNS = {"report.csv": (["verify"], "report.csv"),
        "converge.csv": (["converge"], "converge.csv"),
        "modulus.csv": (["modulus"], "modulus.csv"),
        "ball3d_report.csv": (["verify", "--config",
                               str(GOLDEN / "ball3d.cfg")], "report.csv"),
        "star_screened_report.csv": (
            ["verify", "--config", str(GOLDEN / "star_screened.cfg")],
            "report.csv")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_reproduces_golden_report(name, tmp_path):
    argv, written = RUNS[name]
    # exit status 1 (a failed check) still writes the report, and the
    # golden comparison covers the pass column
    assert main(argv + ["--out", str(tmp_path), "--seed", "0"]) in (0, 1)
    assert compare_reports_csv(GOLDEN / name, tmp_path / written, rtol=1e-9)


def test_cli_reproduces_golden_star_near_eval(tmp_path):
    assert main(["eval", "--config", str(GOLDEN / "star_near.cfg"),
                 "--out", str(tmp_path)]) == 0
    golden = _rows(GOLDEN / "star_near_eval.csv")
    fresh = _rows(tmp_path / "eval.csv")
    assert fresh[0] == golden[0] and len(fresh) == len(golden) == 13
    np.testing.assert_allclose(np.array(fresh[1:], dtype=float),
                               np.array(golden[1:], dtype=float),
                               rtol=1e-9, atol=1e-12)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _mutated(rows, field, factor):
    """Copy of rows with the first numeric token of magnitude >= 1e-3 in
    ``field`` ("param", or "value" for the value and tolerance columns)
    multiplied by factor, or None when there is no such token."""
    for r, row in enumerate(rows[1:], 1):
        cols = [1] if field == "param" else [3, 4]
        for c in cols:
            tokens = _PARAM_SPLIT.split(row[c])
            for t, tok in enumerate(tokens):
                try:
                    v = float(tok)
                except ValueError:
                    continue
                if abs(v) >= 1e-3:
                    tokens[t] = f"{v * factor:.12g}"
                    out = [list(x) for x in rows]
                    out[r][c] = "".join(tokens)
                    return out
    return None


# converge.csv's values and tolerances all lie below 1e-3
@pytest.mark.parametrize("name, field", [
    ("report.csv", "param"), ("report.csv", "value"),
    ("converge.csv", "param"),
    ("modulus.csv", "param"), ("modulus.csv", "value"),
    ("ball3d_report.csv", "param"), ("ball3d_report.csv", "value"),
    ("star_screened_report.csv", "param"),
    ("star_screened_report.csv", "value")])
def test_golden_gate_has_teeth(name, field, tmp_path):
    rows = _rows(GOLDEN / name)
    bad = _mutated(rows, field, 1 + 1e-8)
    _write(tmp_path / name, bad)
    assert not compare_reports_csv(GOLDEN / name, tmp_path / name)
    # the same token moved by 1e-10 relative is a rounding change and passes
    ok = _mutated(rows, field, 1 + 1e-10)
    assert ok != rows
    _write(tmp_path / name, ok)
    assert compare_reports_csv(GOLDEN / name, tmp_path / name)


def _floor_rows(name):
    """(row index, floor) of every finite-difference row of a golden: the
    rows that record their ``rounding_floor`` in ``param``."""
    out = []
    for r, row in enumerate(_rows(GOLDEN / name)[1:], 1):
        tokens = _PARAM_SPLIT.split(row[1])
        if "rounding_floor" in tokens:
            out.append((r, float(tokens[tokens.index("rounding_floor")
                                        + 2])))
    return out


FLOOR_ROWS = [(name, r, floor) for name in sorted(RUNS)
              for r, floor in _floor_rows(name)]


def test_every_golden_with_a_stencil_has_floor_rows():
    assert {name for name, _, _ in FLOOR_ROWS} == {
        "report.csv", "ball3d_report.csv", "star_screened_report.csv"}


@pytest.mark.parametrize("name, r, floor", FLOOR_ROWS,
                         ids=[f"{n}-{r}" for n, r, _ in FLOOR_ROWS])
def test_golden_gate_reads_the_rounding_floor(name, r, floor, tmp_path):
    # a finite-difference value moved by half its committed floor passes,
    # one moved by ten times its floor fails
    rows = _rows(GOLDEN / name)
    for factor, same in ((0.5, True), (10.0, False)):
        moved = [list(x) for x in rows]
        moved[r][3] = f"{float(rows[r][3]) + factor * floor:.12g}"
        _write(tmp_path / name, moved)
        assert compare_reports_csv(GOLDEN / name, tmp_path / name) is same
