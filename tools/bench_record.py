"""Record the benchmark, Tier-1 and verify timings of a checkout in one file.

    python3 tools/bench_record.py --out BENCH_12.json

From the root of a bellkit checkout this runs, one after another:

* RUNS runs of ``bench/run.py --workload all``, seeds SEED, SEED+1, ...;
  each end-to-end metric of each workload is kept as the median and
  quartiles over the runs, with every run's value;
* one ``--trace 1`` run at SEED, whose per-layer rows are kept as printed;
* the Tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
  with ``src`` on the path): wall time, and the counts pytest reports;
* the full ``bellkit verify`` battery: the seconds of each check, read from
  stderr, where ``verify`` prints them to the millisecond;

and writes them as JSON with the machine (cores, Python, numpy), the repeat
count and the line count of ``src/``.

Figures from different ``BENCH_*.json`` files are not comparable on a shared
machine: each file is recorded at another time, under another load, and a
workload that calls no changed code can move by a third between two files.
A speed claim rests on paired, alternating runs of the parent and the
change, not on the difference between two files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3       # benchmark repeats; quartiles need at least three
SEED = 100     # seed of the first benchmark run and of the traced one


def run(cmd, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env, check=False)


def bench(seed: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
           "--trace", str(trace)]
    out = run(cmd)
    if out.returncode != 0:
        sys.exit(f"bench_record: {' '.join(cmd)} exited with {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def end_to_end(results: list[dict]) -> dict:
    table = {}
    for name in results[0]["workloads"]:
        runs = [r["workloads"][name] for r in results]
        metrics = runs[0]["metrics"]
        table[name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {m: {"unit": metrics[m]["unit"],
                            **quartiles([r["metrics"][m]["value"] for r in runs])}
                        for m in metrics},
        }
    return table


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def tier1() -> dict:
    start = time.perf_counter()
    out = run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider"], env=src_env())
    wall = time.perf_counter() - start
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"wall_s": wall, "exit_code": out.returncode, "summary": summary, "counts": counts}


def verify() -> dict:
    out = run([sys.executable, "-m", "bellkit.cli", "verify"], env=src_env())
    seconds = {check: float(s) for check, s in
               re.findall(r"^(\S+)\s+\[([0-9.]+)s\]$", out.stderr, flags=re.MULTILINE)}
    return {"exit_code": out.returncode, "check_seconds": seconds}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_12.json")
    args = p.parse_args(argv)

    import numpy
    seeds = [SEED + i for i in range(RUNS)]
    results = [bench(seed, trace=0) for seed in seeds]
    traced = bench(SEED, trace=1)
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "repeats": RUNS,
        "seeds": seeds,
        "end_to_end": end_to_end(results),
        "per_layer": {name: {"seed": SEED, "metrics": r["metrics"]}
                      for name, r in traced["workloads"].items()},
        "tier1": tier1(),
        "verify": verify(),
        "src_lines": src_lines(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
