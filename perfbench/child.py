"""One benchmark process: set up, run a workload's ops back to back, report.

Started by ``run.py`` in a fresh interpreter for every measurement, so that
module-level state of the library never carries over between runs.  Prints
one JSON object as its last line of standard output.

Modes:
  setup   import artifact and make the inputs, then stop (a set-up sample);
  run     untraced: whole passes until --seconds would be exceeded (at least
          one), or exactly --passes passes when --seconds is 0; then, untimed,
          the quadrature workload's known-defect ops;
  trace   as run with --passes, with spans and counts on every layer.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import sys
import time

import workloads


def ref_kernel_s() -> float:
    """A fixed numpy + interpreter kernel, timed; it shows host speed drift."""
    import numpy as np

    t = time.perf_counter()
    g = np.random.Generator(np.random.Philox(0))
    u, w = g.uniform(-1.5, 1.5, 500_000), g.standard_exponential(500_000)
    float(np.sum(np.sin(1.3 * u) / np.cos(u) ** (1 / 1.3) * (np.cos(0.3 * u) / w) ** (-0.3 / 1.3)))
    acc = 0
    for i in range(200_000):
        acc += i
    return time.perf_counter() - t


def make_passes(workload: str, seed: int, out_dir: str):
    import artifact
    import artifact.cli

    root_src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(artifact.__file__).startswith(root_src + os.sep):
        raise SystemExit(f"artifact imported from {artifact.__file__}, not from {root_src}")
    if workload == "stepping":
        return workloads.stepping_passes(artifact.cli, seed)
    if workload == "matrix":
        return workloads.matrix_passes(artifact.cli, seed)
    return workloads.quadrature_passes(artifact, seed, os.path.join(out_dir, "sigma-table.csv"))


def run_op(op) -> tuple:
    """(seconds, Outcome) of one op; an op that raises is counted as failed."""
    t = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:
        dt = time.perf_counter() - t
        return dt, workloads.Outcome(workloads.digest(repr(exc)),
                                     f"{op.kind}: {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t
    return dt, op.check(out)


def measure(passes, seconds: float, n_passes: int) -> dict:
    records, pass_s = [], []
    t0, c0 = time.perf_counter(), time.process_time()
    for k, ops in enumerate(passes):
        tp = time.perf_counter()
        op_total = 0.0
        for op in ops:
            dt, outcome = run_op(op)
            op_total += dt
            records.append({"kind": op.kind, "s": dt, "points": op.points,
                            "digest": outcome.digest, "failure": outcome.failure,
                            "facts": outcome.facts})
        pass_s.append(op_total)
        elapsed = time.perf_counter() - t0
        if seconds > 0:
            if elapsed + (time.perf_counter() - tp) > seconds:
                break
        elif k + 1 == n_passes:
            break
    return {"records": records, "pass_s": pass_s, "loop_s": time.perf_counter() - t0,
            "loop_cpu_s": time.process_time() - c0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.time() at spawn")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", default=None, help="write the spans here (.npz)")
    args = ap.parse_args()

    passes = make_passes(args.workload, args.seed, args.out_dir)
    setup_s = time.time() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    import scipy

    result = {"setup_s": setup_s, "ref_kernel_s": [ref_kernel_s()],
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    tracer = useful = None
    if args.mode == "trace":
        import tracer as tracing

        tracer, useful = tracing.Tracer(), collections.Counter()
        tracing.install(tracer, useful)
    result.update(measure(passes, args.seconds, args.passes))
    result["ref_kernel_s"].append(ref_kernel_s())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode == "run" and args.workload == "quadrature":
        import artifact

        result["known_defects"] = [run_op(op)[1].failure
                                   for op in workloads.known_defect_ops(artifact, args.seed)]
    if tracer is not None:
        facts = {"stat_ratio": collections.defaultdict(list), "integrals": 0, "ladder": 0,
                 "undecided": 0}
        for rec in result["records"]:
            f = rec["facts"]
            if "stat_ratio" in f:
                facts["stat_ratio"][rec["kind"].partition(".")[2]].append(f["stat_ratio"])
            for key in ("integrals", "ladder", "undecided"):
                facts[key] += f.get(key, 0)
        result["per_layer"] = tracing.per_layer(tracer, useful, facts)
        result["spans"] = len(tracer.start)
        if args.spans:
            np.savez(args.spans, **tracer.spans())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
