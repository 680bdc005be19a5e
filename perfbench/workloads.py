"""The four benchmark workloads.

Each workload has ``setup(seed, workdir)``, which builds every input from
the seed, and ``run(inputs)``, one pass, which returns the program's
outputs as a list of :class:`Op`.  ``check`` (ball3d-near only) judges
outputs after the pass, outside the timed region.  Why each workload exists
is written in README.md next to this file.
"""

import contextlib
import io
from dataclasses import dataclass

import numpy as np

import volpot
from volpot import cli, config

import instrument
import oracle


@dataclass
class Op:
    """One checked output: ``ok`` is the verdict at its pinned tolerance;
    ``known_defect`` marks an output the seed code is known to get wrong
    (it still counts as failed)."""

    label: str
    ok: bool
    known_defect: bool = False
    value: object = None


def _preset(name, fn):
    return volpot.DensityPreset(name, fn, None)


# -- cli-disk: the three CLI commands on the built-in default config -------

CLI_COMMANDS = ("verify", "converge", "modulus")


def cli_disk_setup(seed, workdir):
    cfg = config.default_config()
    op = config.build_operator(cfg)
    config.build_fundsol(cfg, op)
    config.build_domain(cfg)
    config.build_density(cfg)
    return {"seed": seed, "out": str(workdir / "cli-out")}


def cli_disk_run(inp):
    ops = []
    for cmd in CLI_COMMANDS:
        # every CLI invocation is a fresh process with cold rule caches
        instrument.clear_rule_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([cmd, "--out", inp["out"], "--jobs", "1",
                           "--seed", str(inp["seed"])])
        # exit 1 is a check that ran and failed: `volpot modulus` fails its
        # ratio <= 5 criterion for about half of all seeds (1, 6, 8, 9, 10
        # and 11 of 0-11), its sampled omega_1 seminorms at scale 1e-4
        # falling short; exit 2 is an error and never expected
        ops.append(Op(f"cli {cmd}", rc == 0,
                      known_defect=cmd == "modulus" and rc == 1))
    return ops


# -- transmission-disk: acceptance criterion 04's work ---------------------

TRANSMISSION_SAMPLES = 4
TRANSMISSION_TOL = 1e-4      # test_04_transmission's pinned tolerance


def transmission_disk_setup(seed, workdir):
    # (0, x1, 0) rotated by a seeded angle: components e_j (y . e) with
    # sum_j d_j (e_j y . e) = 1, the same field in a rotated frame
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    e = np.array([np.cos(phi), np.sin(phi)])
    domain = volpot.disk()
    comps = (_preset("zero", lambda y: np.zeros(np.asarray(y).shape[0])),
             _preset("e1_ye", lambda y: e[0] * (np.asarray(y) @ e)),
             _preset("e2_ye", lambda y: e[1] * (np.asarray(y) @ e)))
    return {"fs": volpot.laplace_fundamental(2), "domain": domain,
            "targets": [("volume", volpot.get_preset("one")),
                        ("negative", volpot.negative_density(domain, comps,
                                                             1.0))]}


def transmission_run(inp):
    ops = []
    for target in inp["targets"]:
        rep = volpot.verify.check_transmission(
            inp["fs"], inp["domain"], target,
            n_samples=TRANSMISSION_SAMPLES, N=64, tol=TRANSMISSION_TOL)
        ops.append(Op(f"transmission {target[0]}", bool(rep.passed)))
    return ops


# -- star-screened: star ray casting and the K0/K1 kernels -----------------

def star_screened_setup(seed, workdir):
    sharpness = np.random.default_rng(seed).uniform(1.5, 2.5)
    return {"fs": volpot.helmholtz_fundamental(2, 1.0),
            "domain": volpot.cosine_star([1.0, 0.0, 0.0, 0.2]),
            "targets": [("volume", volpot.get_preset("bump", k=sharpness)),
                        ("single_layer", volpot.get_preset("one"))]}


# -- ball3d-near: large 3D rules, the memory-bound path --------------------

BALL_N = 20
BALL_TOL = 1e-5              # test_02 (3D value) and test_08 (Hessian)
# (label, radius along the seeded direction)
BALL_POINTS = (("centre", 0.0), ("interior 1e-3", 1.0 - 1e-3),
               ("interior 1e-4", 1.0 - 1e-4), ("exterior 1e-4", 1.0 + 1e-4),
               ("far 3R", 3.0))
ANISO_DIAG = (4.0, 1.0, 2.0)
KAPPA = 1.0


def ball3d_near_setup(seed, workdir):
    d = np.random.default_rng(seed).standard_normal(3)
    d /= np.linalg.norm(d)
    kernels = [
        ("laplace", volpot.laplace_fundamental(3), oracle.laplace_ball),
        ("anisotropic", volpot.principal_fundamental(
            volpot.anisotropic(np.diag(ANISO_DIAG))),
         lambda x: oracle.anisotropic_ball(ANISO_DIAG, x)),
        ("screened", volpot.helmholtz_fundamental(3, KAPPA),
         lambda x: oracle.screened_ball(KAPPA, x)),
    ]
    return {"domain": volpot.make_ball(3, [0.0, 0.0, 0.0], 1.0),
            "f": volpot.get_preset("one"), "kernels": kernels,
            "points": [(label, r * d, r < 1.0) for label, r in BALL_POINTS]}


def ball3d_near_run(inp):
    ops = []
    domain, f = inp["domain"], inp["f"]
    for kname, fs, _ in inp["kernels"]:
        for label, x, interior in inp["points"]:
            quantities = [("value", volpot.volume_potential),
                          ("gradient", volpot.volume_potential_gradient)]
            if interior:
                quantities.append(("hessian",
                                   volpot.volume_potential_hessian))
            for qname, fn in quantities:
                op = Op(f"{kname} {qname} {label}", False)
                try:
                    op.value = fn(fs, domain, f, x, BALL_N)
                except Exception as exc:           # counted as a failure
                    op.value = exc
                ops.append(op)
    return ops


def ball3d_near_check(inp, ops):
    refs = {}
    for kname, _, ref in inp["kernels"]:
        for label, x, _ in inp["points"]:
            refs[kname, label] = dict(zip(("value", "gradient", "hessian"),
                                          ref(x)))
    for op in ops:
        kname, qname, label = op.label.split(" ", 2)
        want = refs[kname, label][qname]
        if isinstance(op.value, Exception):
            continue
        err = np.max(np.abs(np.asarray(op.value) - want))
        op.ok = bool(err <= BALL_TOL)
        # the Hessian's boundary term K^+[k1, nu] uses the plain boundary
        # rule, which is far from converged this close to the sphere
        op.known_defect = bool(np.isfinite(err) and qname == "hessian"
                               and label != "centre")
    for op in ops:
        op.value = None
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    check: object = None


WORKLOADS = {w.name: w for w in (
    Workload("cli-disk", cli_disk_setup, cli_disk_run),
    Workload("transmission-disk", transmission_disk_setup, transmission_run),
    Workload("star-screened", star_screened_setup, transmission_run),
    Workload("ball3d-near", ball3d_near_setup, ball3d_near_run,
             ball3d_near_check),
)}
