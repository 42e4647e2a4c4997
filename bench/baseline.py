"""Run the benchmark over several seeds and record medians, spreads and provenance.

    python3 bench/baseline.py --seeds 1-10 --trace 0 --out FILE [--against OLD]

For every workload and metric it prints the median of the per-run values and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. It marks an
end-to-end metric whose spread reaches a third of its bound in BENCHMARK.json
(setup_s excepted). With ``--against`` it also compares each median with the
one recorded in an earlier file and marks any that is worse by more than the
bound. The output file records the machine (nproc, CPU model) and the Python
and numpy versions next to the numbers.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy
    return {"commit": commit(), "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds")}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path,
                        help="an earlier output of this script to compare with")
    args = parser.parse_args()

    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    old = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record = {"provenance": provenance(),
              "run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": seed_list(args.seeds), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in record["seeds"]]
        table = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        record["workloads"][workload] = table
        for name, row in table.items():
            flags = []
            bound, better = bounds.get(name, (None, None))
            if bound is not None and name != "setup_s" and row["spread"] >= bound / 3:
                flags.append(f"spread >= bound/3 ({bound / 3:.3f})")
            before = old.get(workload, {}).get(name)
            if bound is not None and before:
                change = row["median"] / before["median"] - 1.0
                worse = change if better == "lower" else -change
                flags.append(f"{change:+.3f} vs earlier")
                if worse > bound:
                    flags.append(f"worse than bound {bound}")
            steady &= not any("bound" in f for f in flags)
            print(f"{workload:14s} {name:30s} median {row['median']:12.6g} "
                  f"spread {row['spread']:.4f} {' '.join(flags)}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
