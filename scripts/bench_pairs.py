"""Benchmark two checkouts of cityroad against each other and write the record.

    python3 scripts/bench_pairs.py --parent DIR --change DIR
        --workloads limit simulate speeds --pairs 10 --seed0 301
        [--seconds 35] --out BENCH_<n>.json

For each workload, pair ``i`` runs ``perfbench/run.py --seed seed0+i`` in
both checkouts, the parent first in even pairs and the change first in odd
ones.  One more pair at ``seed0+pairs`` runs traced (``--trace 1``) for the
per-layer numbers.  Each checkout runs its own ``perfbench/`` on its own
``src``.  Then ``cityroad verify``, and after it the Tier-1 suite (``python
-m pytest -q --continue-on-collection-errors``), run ``CHECK_RUNS`` times in
each checkout, timed, the sides alternating in the same way.

The record holds every run's last-line JSON; per workload and metric the
median and quartiles (numpy linear interpolation) of each side and
``change_lower``, the pairs in which the change's value is lower; every
verify and Tier-1 timing, the latter with the counts of pytest's summary
line, and each side's median and quartiles of their wall times; and the
machine: CPUs, CPU model, Python, numpy, BLAS, the
``OPENBLAS_NUM_THREADS`` and ``PYTHONDONTWRITEBYTECODE`` settings and the
load average at start and end.  The exit status is 1 if any run reported
``correct: false`` or printed no result, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
CHECK_RUNS = 3  # timed runs of verify, and of Tier-1, per side
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
_COUNT = re.compile(r"(\d+) ([a-z]+)")


def last_json_line(stdout: str) -> dict | None:
    """The JSON object on the last non-empty line of ``stdout``, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def pytest_counts(stdout: str) -> dict:
    """The counts on pytest's last summary line (``"2 failed, 319 passed in
    39.80s"`` gives ``{"failed": 2, "passed": 319}``), or {} without one."""
    lines = [line for line in stdout.splitlines() if _COUNT.match(line.strip("= "))]
    if not lines:
        return {}
    counts = lines[-1].strip("= ").rsplit(" in ", 1)[0]
    return {word: int(n) for n, word in _COUNT.findall(counts)}


def side_order(i: int) -> tuple:
    """The sides in the order of round or pair ``i``: the parent first in
    even ones, the change first in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def _stats(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric, each side's median and quartiles over the
    untraced pairs and the count of pairs where the change reads lower; and
    each side's traced per-layer values.

    ``runs`` holds ``{"workload", "pair", "side", "trace", "result"}``
    records, ``result`` being a run's last-line JSON or None."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for p in pairs.values() if all(p.get(side) for side in SIDES)]
        entry = {
            "pairs": len(complete),
            "correct": {side: all(p[side]["correct"] for p in complete) for side in SIDES},
            "failed_of_attempted": {
                side: [f"{p[side]['failed']}/{p[side]['attempted']}" for p in complete]
                for side in SIDES},
            "metrics": {},
        }
        names = complete[0]["parent"]["metrics"] if complete else {}
        for name in names:
            values = {side: [p[side]["metrics"][name]["value"] for p in complete]
                      for side in SIDES}
            entry["metrics"][name] = {
                "unit": names[name]["unit"],
                **{side: {**_stats(values[side]), "runs": values[side]} for side in SIDES},
                "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            }
        entry["traced"] = {r["side"]: {k: m["value"] for k, m in r["result"]["metrics"].items()}
                           for r in runs
                           if r["workload"] == workload and r["trace"] and r["result"]}
        summary[workload] = entry
    return summary


def all_correct(runs: list[dict]) -> bool:
    return all(r["result"] is not None and r["result"].get("correct") is True for r in runs)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return last_json_line(proc.stdout)


def _time_verify(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cityroad.cli", "verify"], cwd=root,
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    return {"wall_s": round(wall, 3), "exit": proc.returncode,
            "passed": sum(line.startswith("PASS") for line in lines), "criteria": len(lines)}


def _time_tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return {"wall_s": round(wall, 3), "exit": proc.returncode, **pytest_counts(proc.stdout)}


def time_checks(roots: dict, timer) -> dict:
    """``timer(root)``, whose result holds ``wall_s``, run ``CHECK_RUNS``
    times per side in alternating order: per side, every result and the
    median and quartiles of the wall times."""
    results = {side: [] for side in SIDES}
    for i in range(CHECK_RUNS):
        for side in side_order(i):
            results[side].append(timer(roots[side]))
    return {side: {"wall_s": _stats([r["wall_s"] for r in results[side]]),
                   "runs": results[side]} for side in SIDES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    load_start = os.getloadavg()
    runs = []
    for workload in args.workloads:
        for pair in range(args.pairs + 1):
            trace = pair == args.pairs
            order = side_order(pair)
            for side in order:
                result = _run_perfbench(roots[side], workload, args.seed0 + pair,
                                        args.seconds, trace)
                runs.append({"workload": workload, "pair": pair, "seed": args.seed0 + pair,
                             "side": side, "first": side == order[0], "trace": trace,
                             "result": result})
                print(f"{workload} pair {pair} {side} trace={int(trace)}: "
                      f"{'no result' if result is None else 'correct=' + str(result['correct'])}",
                      file=sys.stderr, flush=True)
    verify = time_checks(roots, _time_verify)
    tier1 = time_checks(roots, _time_tier1)
    record = {
        "command": ["python3", "scripts/bench_pairs.py", "--workloads", *args.workloads,
                    "--pairs", str(args.pairs), "--seed0", str(args.seed0),
                    "--seconds", str(args.seconds)],
        "statistics": "median and quartiles (numpy linear interpolation) over the untraced "
                      "pairs, and for verify and tier1 over their runs per side; "
                      "change_lower = pairs in which the change's value is lower",
        "machine": {**machine_facts(), "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
        "summary": summarize(runs),
        "verify": verify,
        "tier1": tier1,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
