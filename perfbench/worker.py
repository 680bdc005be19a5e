"""One pass of one workload, in the fresh interpreter run.py starts.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
       --result FILE

Times set-up (importing volpot, building the inputs) and the pass, reads
the process's peak RSS, checks the outputs and writes one JSON object to
FILE.  With --trace 1 the pass runs under the layer tracer and the spans
go to spans-<workload>.jsonl next to FILE.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import volpot.cli  # noqa: F401  (the package and its CLI module)
    t_import = time.perf_counter() - t0

    import instrument
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    inputs = workload.setup(args.seed, args.result.parent)
    setup_s = t_import + time.perf_counter() - t1

    recorder = instrument.Tracer() if args.trace else instrument.EvalTimer()
    recorder.install()
    instrument.clear_rule_caches()
    t2 = time.perf_counter()
    ops = workload.run(inputs)
    wall_s = time.perf_counter() - t2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.check is not None:
        workload.check(inputs, ops)

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb,
              "ops": [[op.label, op.ok, op.known_defect] for op in ops],
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if args.trace:
        result["layers"] = recorder.layer_metrics(wall_s)
        recorder.write_spans(args.result.parent
                             / f"spans-{args.workload}.jsonl")
    else:
        result["eval_ms"] = [1e3 * t for t in recorder.latencies]
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
