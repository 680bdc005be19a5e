import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import volpot
from volpot.cli import main, provenance_text
from volpot.config import parse_config, build_operator, build_modulus
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


def test_build_modulus_specs():
    assert build_modulus("power:0.5").kind == "power"
    assert build_modulus("omega:1.0").kind == "omega_theta"
    with pytest.raises(ConfigError):
        build_modulus("weird:2")


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
