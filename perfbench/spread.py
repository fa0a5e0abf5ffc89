"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --seeds 1-10 [--workloads point-query,...]
        [--save perfbench/out/set-a.json] [--compare perfbench/out/set-a.json]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one
after another, then prints for every end-to-end metric the median, the
quartiles and the spread -- the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median -- next to the metric's bound from ``BENCHMARK.json``. A spread
of a third of the bound or more is flagged (``setup_s`` excepted), and
so is a median worse than the ``--compare`` set's by more than the
bound. Exits 1 when anything is flagged or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec):
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--save", help="write the raw values here")
    parser.add_argument("--compare", help="raw values of an earlier set")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = (json.loads(Path(args.compare).read_text())
               if args.compare else {})

    values = {}
    flagged = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            try:
                runs.append(run_once(workload, seed, args.seconds))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                flagged = True
        values[workload] = {name: [run[name] for run in runs]
                            for name in metrics if runs}
        for name, metric in metrics.items():
            series = values[workload].get(name, [])
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            note = ""
            if name != "setup_s" and spread >= metric["bound"] / 3:
                note = "  SPREAD"
                flagged = True
            before = earlier.get(workload, {}).get(name)
            if before and len(before) >= 2:
                old = statistics.median(before)
                change = (med - old) / old
                worse = (-change if metric["better"] == "higher"
                         else change)
                note += f"  vs earlier {change:+.3f}"
                if worse > metric["bound"]:
                    note += " WORSE"
                    flagged = True
            print(f"{workload:13s} {name:18s} median {med:12.4f} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.4f} "
                  f"bound {metric['bound']}{note}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
