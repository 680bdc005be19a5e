import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volpot
from volpot import cli
from volpot.cli import PROBES, ROWS, Row, _probes, main, provenance_text
from volpot.config import parse_config, build_operator
from volpot.errors import ConfigError
from volpot.verify import DEFAULT_TOLERANCES

BAD_CONFIG = """\
operator.a2 = [[1, 0], [0, -1]]
operator.a1 = [0, 0]
operator.a0 = 0,0
domain.kind = ball
domain.dim = 2
domain.R = 1.0
"""

SMALL_CONFIG = """\
domain.kind = ball
domain.dim = 2
domain.R = 1.0
checks.list = [closed_form, derivative_recursion]
checks.N = 32
eval.points = [[0, 0], [0.5, 0], [2, 0]]
"""


def test_config_parser_values():
    cfg = parse_config("operator.a0 = 1.5,-2.0\n# comment\n"
                       "checks.list = [a, b]\ndomain.R = 2.0\n")
    assert cfg["operator"]["a0"] == (1.5, -2.0)
    assert cfg["checks"]["list"] == ["a", "b"]
    assert cfg["domain"]["R"] == 2.0
    op = build_operator(cfg)
    assert op.a0 == complex(1.5, -2.0)


def test_config_parser_error_has_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("operator.a2 = [[1,0],[0,1]]\nbroken line\n")
    assert "line 2" in str(err.value)


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("eval", "verify", "converge", "modulus"):
        assert cmd in out


def test_version_contains_tolerances(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "volpot" in out
    for name, value in DEFAULT_TOLERANCES.items():
        assert name in out
        assert f"{value:g}" in out


def test_version_lists_the_report_rows(capsys):
    assert main(["--version"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[lines.index("verify report rows (check: verify function, "
                             "tolerance):") + 1:]
    assert len(rows) == len(ROWS)
    for line, row in zip(rows, ROWS):
        key = f"checks.{row.key}_tol" if row.key else "fixed"
        assert line == (f"  {row.check}: {row.call}, "
                        f"{DEFAULT_TOLERANCES[row.default]:g} ({key})")


def test_version_bytes_stable_when_piped():
    # the child imports the same volpot as this process, installed or not
    src = str(Path(volpot.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "volpot.cli", "--version"]
    a = subprocess.run(cmd, capture_output=True, env=env).stdout
    b = subprocess.run(cmd, capture_output=True, env=env).stdout
    assert a == b
    assert a.decode() == provenance_text()


def test_eval_writes_closed_form_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "eval.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert abs(float(rows[0]["re"]) - (-0.25)) <= 1e-8
    assert float(rows[0]["im"]) == 0.0


def test_non_elliptic_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BAD_CONFIG)
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "ellipticity" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("body", [
    # no operator section: its default a2 is 2 x 2
    "domain.dim = 3\neval.points = [[0.33333, 0.66666, -0.66666]]\n",
    "domain.dim = 2\noperator.a2 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
    "operator.a1 = [0, 0, 0]\n"], ids=["3d-ball", "disk"])
def test_operator_of_another_dimension_exits_2(tmp_path, capsys, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("domain.kind = ball\ndomain.R = 1.0\nchecks.N = 20\n"
                   + body)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "operator.a2 is" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


# -- the operator section picks the kernel; fundsol.* only checks it --------

UNIT_DISK = ("domain.kind = ball\ndomain.dim = 2\ndomain.R = 1.0\n"
             "checks.N = 32\neval.points = [[0.2, 0.1], [0.5, -0.3]]\n")


def _eval_exit(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(UNIT_DISK + text)
    return main(["eval", "--config", str(cfg), "--out", str(tmp_path)])


@pytest.mark.parametrize("body, message", [
    ("eval.quantity = gradient\n", "unknown eval.quantity 'gradient'"),
    ("eval.points = [[0.2, 0.1, 0.3]]\n", "eval.points must be"),
    ("eval.points = [[0.2, 0.1], [1.0, 0.0]]\n", "within 1e-9")],
    ids=["quantity", "3d-point", "boundary-point"])
def test_failed_eval_leaves_no_csv(tmp_path, capsys, body, message):
    # the quantity and the points' shape are checked before eval.csv is
    # opened, and every point is evaluated before any row is written
    assert _eval_exit(tmp_path, body) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


def test_anisotropic_operator_picks_its_kernel(tmp_path):
    # no fundsol section: the kernel is the operator's, not the Laplace one
    assert _eval_exit(tmp_path, "operator.a2 = [[4, 0], [0, 1]]\n") == 0
    op = volpot.OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    fs = volpot.principal_fundamental(op)
    one = volpot.get_preset("one")
    with open(tmp_path / "eval.csv") as fh:
        rows = list(csv.DictReader(fh))
    for x, row in zip([[0.2, 0.1], [0.5, -0.3]], rows):
        val = volpot.volume_potential(fs, volpot.disk(), one, np.array(x), 32)
        assert (row["re"], row["im"]) == (f"{val.real:.12g}",
                                          f"{val.imag:.12g}")


@pytest.mark.parametrize("operator, terms", [
    ("operator.a2 = [[2, 0.6], [0.6, 1]]\noperator.a0 = -1,0\n",
     ("a0", "a2 != I")),
    ("operator.a1 = [0.5, 0]\n", ("drift", "a1")),
    ("operator.a1 = [0.5, 0]\nfundsol.kind = auto\n", ("drift", "a1"))],
    ids=["anisotropic-screened", "drift", "drift-auto"])
def test_operator_without_a_kernel_exits_2(tmp_path, capsys, operator,
                                           terms):
    assert _eval_exit(tmp_path, operator) == 2
    err = capsys.readouterr().err
    assert "operator section" in err
    assert all(term in err for term in terms)
    assert not (tmp_path / "eval.csv").exists()


@pytest.mark.parametrize("fundsol, names", [
    ("fundsol.kind = laplace\n", ("fundsol.kind", "modified-helmholtz")),
    ("fundsol.kind = principal\n", ("fundsol.kind", "modified-helmholtz")),
    ("fundsol.kappa = 2\n", ("fundsol.kappa", "kappa = 1.0")),
    ("fundsol.kind = helmholtz\n", ("unknown fundsol.kind",))],
    ids=["laplace", "principal", "kappa", "unknown"])
def test_fundsol_section_disagreeing_with_the_operator_exits_2(
        tmp_path, capsys, fundsol, names):
    assert _eval_exit(tmp_path, "operator.a0 = -1,0\n" + fundsol) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names)
    assert not (tmp_path / "eval.csv").exists()


def test_fundsol_section_agreeing_with_the_operator_runs(tmp_path):
    assert _eval_exit(tmp_path, "operator.a0 = -1,0\n"
                      "fundsol.kind = modified-helmholtz\n"
                      "fundsol.kappa = 1\n") == 0
    screened = (tmp_path / "eval.csv").read_text()
    assert _eval_exit(tmp_path, "operator.a0 = -1,0\n") == 0
    assert (tmp_path / "eval.csv").read_text() == screened


def test_unknown_preset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CONFIG + "density.preset = nope\n")
    assert main(["verify", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert "preset" in capsys.readouterr().err.lower()


def test_verify_small_config_passes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["pass"] == "true" for row in rows)


def test_verify_default_config_full_suite(tmp_path):
    # the built-in Laplace-disk configuration: every check passes and the
    # report holds well over six checks
    assert main(["verify", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    checks = {row["check"] for row in rows}
    assert len(checks) >= 6
    assert all(row["pass"] == "true" for row in rows)


def test_verify_report_bytes_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", str(cfg), "--out", str(out1)])
    main(["verify", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_verify_jobs_parallel_same_report(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    out1, out2 = tmp_path / "s", tmp_path / "p"
    main(["verify", "--config", str(cfg), "--out", str(out1)])
    main(["verify", "--config", str(cfg), "--out", str(out2), "--jobs", "2"])
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_converge_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG + "converge.N_list = [8, 16, 32]\n")
    assert main(["converge", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "converge.csv").exists()


def test_modulus_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG
                   + "modulus.scales = [1e-1, 1e-2]\nmodulus.N = 32\n")
    assert main(["modulus", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "modulus_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"scale", "omega1_seminorm", "lipschitz_seminorm"} == set(rows[0])


# -- the check table: config errors are caught before any check runs ---------

def _verify_exit(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["verify", "--config", str(cfg), "--out", str(tmp_path)])


def test_unknown_check_exits_2_and_lists_available(tmp_path, capsys):
    code = _verify_exit(tmp_path, SMALL_CONFIG + "checks.list = [nope]\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "'nope'" in err
    for name in ("closed_form", "pde_identity", "transmission",
                 "derivative_recursion", "integration_by_parts",
                 "maximal_bound", "convergence"):
        assert name in err


def test_checks_N_below_4_exits_2(tmp_path, capsys):
    assert _verify_exit(tmp_path, SMALL_CONFIG + "checks.N = 3\n") == 2
    assert "checks.N" in capsys.readouterr().err


def test_nonpositive_tolerance_exits_2(tmp_path, capsys):
    code = _verify_exit(tmp_path, SMALL_CONFIG + "checks.list = [transmission]\n"
                        "checks.transmission_tol = 0\n")
    assert code == 2
    assert "transmission must be positive" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("key", ["transmision_tol", "convergence_tol", "foo"])
def test_unknown_checks_key_exits_2(tmp_path, capsys, key):
    # a misspelled or unknown checks key is not ignored: the run stops
    # before any check, naming the key and listing the valid ones
    code = _verify_exit(tmp_path, SMALL_CONFIG + f"checks.{key} = 1e-30\n")
    assert code == 2
    err = capsys.readouterr().err
    assert f"checks.{key}" in err
    for valid in ("N", "list", "transmission_tol", "ibp_psi_weak_tol",
                  "maximal_growth_tol"):
        assert valid in err
    assert not (tmp_path / "report.csv").exists()


def test_closed_form_on_ellipse_exits_2(tmp_path, capsys):
    code = _verify_exit(tmp_path, "domain.kind = ellipse\n"
                        "checks.list = [closed_form]\nchecks.N = 16\n")
    assert code == 2
    assert "closed_form" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


# config key -> its own tolerance, one value per row kind of the report
TOL_KEYS = {"closed_form": 2e-6, "pde_identity": 3e-3,
            "pde_identity_exterior": 4e-6, "transmission": 5e-4,
            "derivative_recursion": 6e-5, "integration_by_parts": 7e-4,
            "ibp_psi": 8e-3, "ibp_psi_weak": 9e-6, "maximal_bound": 0.11,
            "maximal_growth": 2.5e-6}


def test_every_tolerance_key_reaches_its_rows(tmp_path):
    text = ("checks.list = [closed_form, pde_identity, transmission, "
            "derivative_recursion, integration_by_parts, maximal_bound]\n"
            "checks.N = 8\n"
            + "".join(f"checks.{k}_tol = {v!r}\n" for k, v in TOL_KEYS.items()))
    assert _verify_exit(tmp_path, text) in (0, 1)
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    order = ["closed_form", "pde_identity", "pde_identity_exterior",
             "transmission", "transmission", "derivative_recursion",
             "integration_by_parts", "ibp_psi", "ibp_psi_weak",
             "maximal_bound", "maximal_growth"]
    assert [float(row["tolerance"]) for row in rows] == \
        [TOL_KEYS[k] for k in order]


# -- convergence on shifted unit balls: the closed form is the center value ---

SHIFTED_BALLS = {
    "2d": "domain.dim = 2\ndomain.center = [0.5, 0]\n",
    "3d": "domain.dim = 3\ndomain.center = [0.5, 0, 0]\n"
          "operator.a2 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
          "operator.a1 = [0, 0, 0]\n"}


@pytest.mark.parametrize("command,written", [("converge", "converge.csv"),
                                             ("verify", "report.csv")])
@pytest.mark.parametrize("ball", sorted(SHIFTED_BALLS))
def test_convergence_on_shifted_unit_ball(tmp_path, ball, command, written):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain.kind = ball\ndomain.R = 1.0\n" + SHIFTED_BALLS[ball]
                   + "checks.list = [convergence]\n"
                   + "converge.N_list = [8, 16, 32]\n")
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / written) as fh:
        row = next(csv.DictReader(fh))
    assert "op=volume_potential" in row["param"]
    assert row["pass"] == "true"


def test_verify_points_move_with_an_off_origin_ball(tmp_path):
    # the integration-by-parts and maximal-bound points sit at fixed
    # offsets from the center, so a ball that leaves out the origin runs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain.kind = ball\ndomain.dim = 2\ndomain.R = 1.0\n"
                   "domain.center = [3, 0]\n"
                   "checks.list = [integration_by_parts, maximal_bound]\n")
    assert main(["verify", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["check"] for row in rows] == [
        "integration_by_parts", "sphere_residue", "sphere_residue",
        "maximal_bound", "maximal_bound"]
    assert "x=[3.2 0]" in rows[0]["param"]
    assert all(row["pass"] == "true" for row in rows)


@pytest.mark.parametrize("dim", [2, 3])
def test_exterior_points_move_with_an_off_origin_ball(dim):
    # the exterior grid moves with the ball: a shifted ball's points sit
    # at the centred ball's offsets from its center, so at the same
    # distances from its boundary, and outside it
    centred = volpot.make_ball(dim, np.zeros(dim), 1.0)
    shifted = volpot.make_ball(dim, 3.0 * np.eye(dim)[0], 1.0)
    outside = PROBES["outside"]
    offsets = _probes(shifted, outside) - shifted.center
    np.testing.assert_allclose(offsets, _probes(centred, outside),
                               rtol=1e-15, atol=1e-15)
    for x, y in zip(_probes(shifted, outside), _probes(centred, outside)):
        gap = shifted.distance_to_boundary(x)
        assert gap > shifted.radius
        assert abs(gap - centred.distance_to_boundary(y)) <= 1e-15


def test_a_record_added_to_the_table_reports_its_row(tmp_path, monkeypatch):
    # one more pde_identity row, on the two maximal-bound probes, is one
    # record: it reports after the check's other rows, at its tolerance
    extra = Row("pde_identity", "pde_identity", "pde_identity",
                "check_pde_identity", ("fs", "op", "domain", "bump",
                                       "maximal"), {"N": "N"})
    monkeypatch.setattr(cli, "ROWS", ROWS[:3] + (extra,) + ROWS[3:])
    assert _verify_exit(tmp_path, "checks.list = [pde_identity]\n"
                        "checks.N = 16\nchecks.pde_identity_tol = 2e-3\n") == 0
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["check"] for row in rows] == ["pde_identity"] * 3
    assert [float(row["tolerance"]) for row in rows] == [2e-3, 1e-6, 2e-3]
    assert [row["param"].split("points=")[1].split(";")[0]
            for row in rows] == ["9", "2", "2"]
    assert "side=interior" in rows[2]["param"]


def test_readme_tolerance_table_lists_the_table_keys():
    # README's checks.<key>_tol table: one line per configurable key of
    # the report table, with its default and, where the names differ, its
    # DEFAULT_TOLERANCES key
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = text.split("| `checks.<key>_tol` key |", 1)[1].split("\n\n")[0]
    listed = {}
    for line in body.splitlines()[2:]:
        key, _, default = [cell.strip() for cell in line.strip("|").split("|")]
        value, _, name = default.partition(" ")
        listed[key.strip("`")] = (float(value),
                                  name.strip("(`)") or key.strip("`"))
    expected = {row.key: (DEFAULT_TOLERANCES[row.default], row.default)
                for row in ROWS if row.key}
    assert listed == expected


def test_table_strings_are_run_values_or_known_literals():
    # a string argument stands for the run's value of that name where the
    # namespace has one: every other string in the table must be one of
    # the verify functions' literal modes, so a misspelled name shows here
    cfg = volpot.config.default_config()
    op = volpot.config.build_operator(cfg)
    ns = cli._namespace(op, volpot.config.build_fundsol(cfg, op),
                        volpot.config.build_domain(cfg), 64,
                        volpot.config.build_density(cfg))

    def strings(args):
        for arg in args:
            if isinstance(arg, tuple):
                yield from strings(arg)
            elif isinstance(arg, str):
                yield arg

    literals = {arg for row in ROWS
                for arg in strings(row.args + tuple(row.kw.values()))
                if arg not in ns}
    assert literals == {"volume", "single_layer", "exterior", "bounded",
                        "log-growth", "volume_potential",
                        "single_layer_onsurface", "boundary_kernel"}
    assert all(row.needs is None or row.needs in ns for row in ROWS)
    assert all(callable(getattr(volpot.verify, row.call)) for row in ROWS)
