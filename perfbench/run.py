"""volpot benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a fixed number of passes of one workload, about S seconds of them,
each in a fresh interpreter (worker.py) so that the library's caches start
cold and peak RSS is per pass, one process at a time with BLAS pinned to
one thread.  The pass count depends on the workload and S alone, so every
run of a seed does the same work and checks the same outputs.  The last
line of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (traced passes alternate
with untraced ones, which give the tracing overhead).  Exits 2 without a
result when the volpot sources are missing or a pass crashes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
WORKLOADS = ("cli-disk", "transmission-disk", "star-screened", "ball3d-near")
MIN_PASSES = 3
# seconds of one pass, fresh interpreter, set-up and checks included, at
# the seed code on a 2-CPU 2.0 GHz Xeon virtual machine; a run makes
# round(S / PASS_S) passes
PASS_S = {"cli-disk": 6.5, "transmission-disk": 3.8,
          "star-screened": 3.8, "ball3d-near": 6.5}
# hard limit on one run, passes included
DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {"wall_s": "s", "eval_ms_p50": "ms", "eval_ms_tail": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "geometry.rule_s": "s", "geometry.rule_calls": "count",
    "geometry.rules_per_eval": "ratio",
    "geometry.rule_cache_hit_ratio": "ratio",
    "geometry.nodes_per_eval": "count", "geometry.raycast_s": "s",
    "geometry.raycast_calls": "count", "fundsol.kernel_s": "s",
    "fundsol.points": "count", "fundsol.ns_per_point": "ns",
    "fundsol.bytes_computed": "B", "fundsol.bessel_s": "s",
    "density.s": "s", "density.points": "count",
    "potentials.self_s": "s", "potentials.evals": "count",
    "potentials.calls_per_eval": "ratio", "verify.self_s": "s",
    "verify.checks": "count", "verify.checks_failed": "count",
    "operators.fd_s": "s", "operators.fd_calls": "count", "schauder.s": "s",
    "cli.self_s": "s", "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio"}


class PassError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def run_child(cmd, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"{cmd[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise PassError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                        + proc.stderr[-2000:])


def run_pass(workload, seed, trace, deadline):
    result = WORKDIR / f"pass-{workload}-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    run_child([sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--trace", str(trace),
               "--result", str(result)], deadline)
    return json.loads(result.read_text())


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def measure(workload, seed, seconds, trace, deadline):
    """The workload's passes for ``seconds``; with trace, traced and
    untraced passes alternate, traced first."""
    passes = []
    for i in range(pass_count(workload, seconds)):
        traced = trace and i % 2 == 0
        passes.append((traced, run_pass(workload, seed, int(traced),
                                        deadline)))
    return passes


def harrell_davis(xs, q):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density, which
    spreads the estimate over the samples next to the q-th one instead of
    resting on that one alone.  Both Beta parameters exceed 1 here, so
    the density is 0 at both ends of [0, 1]."""
    xs = np.sort(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    logpdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(logpdf - logpdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ xs)


def tail_quantile(n):
    """The highest quantile of n latencies with ten samples beyond it (a
    run holds at least three passes of at least 39 evaluations)."""
    return (n - 10) / n


def summarize(passes, trace):
    ops = [op for _, p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(not ok for _, ok, _ in ops)
    correct = all(ok or known for _, ok, known in ops)
    med = statistics.median
    if trace:
        traced = [p for t, p in passes if t]
        plain = [p for t, p in passes if not t]
        values = {k: med(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        values["trace.overhead_frac"] = (
            med(p["wall_s"] for p in traced)
            / med(p["wall_s"] for p in plain) - 1.0) if plain else 0.0
        units = LAYER_UNITS
    else:
        values = {k: med(p[k] for _, p in passes)
                  for k in ("wall_s", "peak_rss_mb", "setup_s")}
        # every pass makes the same evaluations in the same order, so the
        # run holds one latency per pass of each evaluation
        if len({len(p["eval_ms"]) for _, p in passes}) != 1:
            raise PassError("passes made different numbers of evaluations")
        per_pass = np.array([p["eval_ms"] for _, p in passes])
        values["eval_ms_p50"] = harrell_davis(np.median(per_pass, axis=0),
                                              0.5)
        values["eval_ms_tail"] = harrell_davis(per_pass.ravel(),
                                               tail_quantile(per_pass.size))
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "volpot" / "__init__.py").is_file():
        print(f"error: no volpot sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        # compiles the bytecode once, outside every timed pass
        run_child([sys.executable, "-c",
                   f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
                   "import volpot, volpot.cli"], deadline)
        passes = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), deadline)
        result = summarize(passes, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    first = passes[0][1]
    untraced = [p for t, p in passes if not t]
    info = {"workload": args.workload, "seed": args.seed,
            "passes": len(passes), "python": first["python"],
            "numpy": first["numpy"], "blas_threads": first["blas_threads"],
            "cpus": os.cpu_count()}
    if not args.trace:
        latencies = [t for p in untraced for t in p["eval_ms"]]
        info.update(evals_per_pass=len(first["eval_ms"]),
                    latency_samples=len(latencies),
                    tail_percentile=round(
                        100.0 * tail_quantile(len(latencies)), 1))
    info["failed_ops"] = sorted({label for _, p in passes
                                 for label, ok, _ in p["ops"] if not ok})
    info["wall_s_per_pass"] = [round(p["wall_s"], 4) for p in untraced]
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
