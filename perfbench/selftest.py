"""Short-scale self-test of the benchmark.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

For every workload, on a 40k-char text and 2-second phases, it checks
that the untraced run prints every end-to-end metric of
``BENCHMARK.json`` with its unit and a positive value; that two traced
runs with the same seed print every per-layer metric with its unit,
report ``error_rate`` 0, and record identical hardware-free counts; and
that the traced run's self times are non-negative and its spans nest
(each child inside its parent's interval and request). Last, it checks
that the benchmark exits non-zero without a result line when the
library sources are missing. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"
SEED = 7
ARGS = ["--seconds", "2", "--chars", "40000"]

sys.path.insert(0, str(HERE))
from spans import check_nesting  # noqa: E402


def run(workload, trace, out, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace), "--out", str(out),
         *ARGS],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: {result}")
    return result


def check_metrics(result, expected, what, positive):
    got = result["metrics"]
    if set(got) != set(expected):
        raise AssertionError(
            f"{what}: missing {sorted(set(expected) - set(got))}, "
            f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        if got[name]["unit"] != unit:
            raise AssertionError(f"{what}: {name} unit "
                                 f"{got[name]['unit']} != {unit}")
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or (positive and value <= 0):
            raise AssertionError(f"{what}: {name} = {value!r}")


def check_dump(path, what):
    dump = json.loads(path.read_text())
    if not dump["counts_deterministic"]:
        raise AssertionError(f"{what}: count passes differ")
    spans = [(s["id"], s["parent"], s["request"], s["name"],
              s["start_ms"], s["start_ms"] + s["duration_ms"])
             for s in dump["spans"]]
    own = {s["id"]: s["self_ms"] for s in dump["spans"]}
    if not spans:
        raise AssertionError(f"{what}: no spans recorded")
    problems = check_nesting(spans, own, slack=1e-3)
    if problems:
        raise AssertionError(f"{what}: {problems[:5]}")
    return dump["counts"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shutil.rmtree(OUT, ignore_errors=True)
    for workload in (w["name"] for w in spec["workloads"]):
        result = result_of(run(workload, 0, OUT / "plain"),
                           f"{workload} untraced")
        check_metrics(result, end_to_end, f"{workload} untraced", True)
        counts = []
        for side in ("a", "b"):
            what = f"{workload} traced ({side})"
            result = result_of(run(workload, 1, OUT / side), what)
            check_metrics(result, per_layer, what, False)
            if result["metrics"]["error_rate"]["value"] != 0:
                raise AssertionError(f"{what}: error_rate != 0")
            counts.append(check_dump(
                OUT / side / f"trace-{workload}-seed{SEED}.json", what))
        if counts[0] != counts[1]:
            diff = {k for k in counts[0].keys() | counts[1].keys()
                    if counts[0].get(k) != counts[1].get(k)}
            raise AssertionError(f"{workload}: counts differ across "
                                 f"runs: {sorted(diff)}")
        print(f"ok  {workload}")

    # Without the library sources the benchmark must fail, printing no
    # result line.
    bare = OUT / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("point-query", 0, bare / "out", cwd=bare,
               script=bare / HERE.name / "run.py")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("bare checkout: expected a failure without "
                             "a result line")
    print("ok  fails without library sources")
    shutil.rmtree(OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
