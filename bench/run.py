"""bellkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs one workload (or, with ``all``, each workload in its own process) from
the root of a bellkit checkout, against the sources under ``src/``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
``--trace 0``, the per-layer metrics when ``--trace 1``.  See README.md.
"""

import time

START = time.perf_counter()   # set-up is timed from the first statement

import os

# BLAS threads share the two cores with the interpreter and slow dense work
# down; pin them before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True   # same import cost in every run, no stray files

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_CHILDREN = 4        # extra set-up samples, each in a fresh process
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit (used for set-up samples)")
    return p.parse_args(argv)


def import_bellkit():
    src = ROOT / "src"
    if not (src / "bellkit" / "__init__.py").is_file():
        sys.exit(f"bench: no bellkit sources under {src}; run from a bellkit checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import bellkit
    return bellkit


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args):
    bellkit = import_bellkit()
    from workloads import TAIL_RANK, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    tracer = None
    if args.trace:
        from layers import combine, round_figures
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(bellkit)
    workload = WORKLOADS[args.workload](args.seed)
    tasks = workload.tasks
    tasks[0].run()                               # untimed warm-up
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

    times: list[list[float]] = []        # [round][task]
    layer_rounds: list[dict] = []
    problems: list[str] = []
    failed = 0
    began = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer:
            tracer.window = len(times)
        row, results = [], []
        for task in tasks:
            t0 = time.perf_counter()
            out = task.run()
            row.append(time.perf_counter() - t0)
            results.append(out)
        if tracer:
            tracer.window = -2                   # checks are not part of a round
            layer_rounds.append(round_figures(tracer, len(times), tasks, results))
        for task, out in zip(tasks, results):
            if task.fault(out):
                failed += 1
            else:
                problems += [f"{task.label}: {p}" for p in task.check(out)]
        problems += workload.round_check(results)
        times.append(row)
        now = time.perf_counter()
        if now - began + (now - round_start) > args.seconds:
            break

    attempted = len(times) * len(tasks)
    per_task = [statistics.median(col) for col in zip(*times)]
    ordered = sorted(per_task)
    for p in dict.fromkeys(problems):
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if args.trace:
        metrics = combine(layer_rounds)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (sum(per_task), "s"),
            "task_p50_s": (statistics.median(per_task), "s"),
            "task_tail_s": (ordered[len(ordered) - 1 - TAIL_RANK], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    print(f"{args.workload}: seed {args.seed}, {len(times)} rounds of {len(tasks)} tasks, "
          f"{failed} of {attempted} failed, correct={result['correct']}, "
          f"task list {sum(per_task):.4f} s{' traced' if args.trace else ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    line = json.dumps(result)
    record = {**result, "round_wall_s": [sum(row) for row in times], "task_s": times}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(line)
    return 0


def run_all(args):
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS
    combined = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(out.stderr)
        if out.returncode != 0 or not out.stdout.strip():
            sys.exit(f"bench: workload {name} exited with code {out.returncode}")
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in combined.values()),
                      "workloads": combined}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
