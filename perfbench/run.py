"""Benchmark entry point.

    python3 perfbench/run.py --workload {stepping,matrix,quadrature} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ./src.  Every
measurement is a fresh single-threaded child process (``child.py``); children
run one at a time, and each op starts only after the previous one returned
(a closed loop with one client).

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      time from spawning a child until ``import artifact`` and the
               workload's inputs are ready; median over five children
  pass_s       wall time of one pass over the workload's ops (sum of the op
               times); median over the passes of the run
  peak_rss_mb  peak resident memory of the measuring child
and prints, by name and unit, the workload's own figures (validate_s.<suite>,
classify_ms_p50/p99, oracle_us_per_point, fail_frac, ...).  On quadrature it
also prints known_defect_failed: how many of the inputs that
workloads.known_defect_ops lists still fail (they are not part of the timed
work and do not count towards correct/failed).

--trace 1 runs a fixed list of passes three times: untraced, then traced
twice.  It reports the per-layer metrics of the first traced run and the
tracing overhead, and fails the run unless every op output of the traced run
is byte-identical to the untraced one and the two traced runs give the same
counts.

Both modes print one JSON object as the last line and keep a full record,
with the machine facts, in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stepping", "matrix", "quadrature")
TRACE_PASSES = {"stepping": 1, "matrix": 2, "quadrature": 2}
# set-up-only children before and after the measuring child, so the set-up
# median spans the run rather than one moment of the host
SETUP_SAMPLES = 2
BUDGET_S = 175.0  # the whole run must end within 180 s
TIME_UNITS = ("s", "ms", "us", "ns")


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 1


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("ARTIFACT_SEED", None)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "ARTIFACT_WORKERS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


class Children:
    """Spawns child.py one at a time within the run's time budget."""

    def __init__(self, root: str, args, out_dir: str):
        self.root, self.args, self.out_dir = root, args, out_dir
        self.env = child_env(root)
        self.deadline = time.monotonic() + BUDGET_S

    def __call__(self, mode: str, **extra) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode, "--out-dir", self.out_dir]
        for key, val in extra.items():
            cmd += [f"--{key.replace('_', '-')}", str(val)]
        cmd += ["--spawned-at", repr(time.time())]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("time budget exhausted before a child could start")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise RuntimeError(f"{mode} child exceeded the time budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def machine_facts(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, **versions}


def op_figures(records: list) -> dict:
    """The workload's own end-to-end figures, {name: (value, unit)}."""
    by_kind: dict = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec)
    out = {}
    for kind, recs in sorted(by_kind.items()):
        if kind.startswith("validate."):
            out[f"validate_s.{kind.partition('.')[2]}"] = (
                statistics.median(r["s"] for r in recs), "s")
    rows = [r["s"] * 1e3 for r in by_kind.get("classify", [])]
    if rows:
        out["classify_ms_p50"] = (statistics.median(rows), "ms")
        out["classify_ms_p99"] = (statistics.quantiles(rows, n=100, method="inclusive")[98], "ms")
        out["classify_rows"] = (len(rows), "count")
        out["classify_undecided"] = (
            sum(r["facts"].get("undecided", 0) for r in by_kind["classify"]), "count")
    oracle = [r for r in records if r["kind"].startswith("oracle.")]
    if oracle:
        out["oracle_us_per_point"] = (
            sum(r["s"] for r in oracle) * 1e6 / sum(r["points"] for r in oracle), "us")
    return out


def emit(metrics: dict, correct: bool, attempted: int, failed: int, record: dict,
         record_path: str, shown: dict) -> None:
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print("machine = " + json.dumps(record["machine"], sort_keys=True))
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def untraced(spawn: Children, args) -> tuple:
    setups = [spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = spawn("run", seconds=args.seconds)
    setups.append(res["setup_s"])
    setups += [spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    records = res["records"]
    failures = [r["failure"] for r in records if r["failure"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(res["pass_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    shown = dict(metrics)
    shown.update({
        "wall_s": (sum(r["s"] for r in records), "s"),
        "fail_frac": (len(failures) / len(records), "1"),
        "passes": (len(res["pass_s"]), "count"),
        **op_figures(records),
        "ref_kernel_s": (statistics.median(res["ref_kernel_s"]), "s"),
        "cpu_per_wall": (res["loop_cpu_s"] / res["loop_s"], "1"),
    })
    known = [f for f in res.get("known_defects", []) if f]
    if "known_defects" in res:
        shown["known_defect_failed"] = (len(known), "count")
        shown["known_defect_ops"] = (len(res["known_defects"]), "count")
    record = {"setup_s_samples": setups, "pass_s": res["pass_s"],
              "ref_kernel_s": res["ref_kernel_s"], "failures": failures[:50],
              "known_defect_failures": known,
              "machine": machine_facts(res["versions"]),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    return metrics, shown, len(failures) == 0, len(records), len(failures), record


def traced(spawn: Children, args, spans_path: str) -> tuple:
    passes = TRACE_PASSES[args.workload]
    ref = spawn("run", passes=passes)
    first = spawn("trace", passes=passes, spans=spans_path)
    second = spawn("trace", passes=passes)
    problems = []
    digests = lambda res: [r["digest"] for r in res["records"]]
    if digests(first) != digests(ref):
        problems.append("traced op outputs differ from the untraced run")
    if digests(second) != digests(first):
        problems.append("the two traced runs' op outputs differ")
    for name, (value, unit) in first["per_layer"].items():
        if unit not in TIME_UNITS and second["per_layer"][name][0] != value:
            problems.append(f"{name} differs between traced runs: {value} vs "
                            f"{second['per_layer'][name][0]}")
    wall = lambda res: sum(r["s"] for r in res["records"])
    metrics = {k: tuple(v) for k, v in first["per_layer"].items()}
    metrics["trace.overhead_s"] = (wall(first) - wall(ref), "s")
    failures = [r["failure"] for r in first["records"] if r["failure"]]
    shown = dict(metrics)
    shown["trace.overhead_frac"] = ((wall(first) - wall(ref)) / wall(ref), "1")
    shown["trace.spans"] = (first["spans"], "count")
    record = {"problems": problems, "failures": failures[:50],
              "machine": machine_facts(first["versions"]),
              "untraced_wall_s": wall(ref), "traced_wall_s": [wall(first), wall(second)],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    for p in problems:
        sys.stderr.write(f"perfbench: {p}\n")
    ok = not problems and not failures
    return metrics, shown, ok, len(first["records"]), len(failures), record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "artifact", "__init__.py")):
        return fail(f"no src/artifact under {root}; run from the root of a checkout")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spawn = Children(root, args, out_dir)
    try:
        if args.trace:
            result = traced(spawn, args, stem + "-spans.npz")
        else:
            result = untraced(spawn, args)
    except RuntimeError as exc:
        return fail(str(exc))
    metrics, shown, ok, attempted, failed, record = result
    emit(metrics, ok, attempted, failed, record, stem + ".json", shown)
    return 0


if __name__ == "__main__":
    sys.exit(main())
