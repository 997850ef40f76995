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
each checkout, timed, the sides alternating in the same way.  Last, each
checkout runs ``cityroad simulate``, ``asymptotic`` and ``speed`` at the
default config, ``asymptotic`` at ``simulation.dt = 1e-3`` (the limit run
on a pinned step, where the default picks its own) and at ``f'(0) = 50``
(past the rates where the limit's own step is coarser than 1e-3), ``speed`` at
``d = 1e-7`` (a steep threshold, where solver changes move bits that the
default config leaves alone) and ``speed`` at ``f'(0) = 1e-30``
(``mu* = 1.7e-15``, 49 halvings from ``mu = 1``), each into a fresh
directory, for the output record.

The record holds every run's last-line JSON and its round count (from
perfbench's ``workload=... rounds=N`` line); per workload and metric the
median and quartiles (numpy linear interpolation) of each side and
``change_lower``, the pairs in which the change's value is lower; for each
end-to-end metric that the change checkout's ``BENCHMARK.json`` declares,
``relative_change`` (change median / parent median - 1), ``parent_spread``
(the parent's interquartile range / median) and a ``verdict`` from that
file's ``bound`` and ``better``: ``worse`` when the change is worse by more
than the bound, else ``unresolved`` when ``parent_spread`` exceeds the
bound, else ``ok``; per workload each side's median and quartiles of the
round counts; every verify and Tier-1 timing, the latter with the counts of
pytest's summary line, and each side's median and quartiles of their wall
times; and the machine: CPUs, CPU model, Python, numpy, BLAS, the
``OPENBLAS_NUM_THREADS`` and ``PYTHONDONTWRITEBYTECODE`` settings and the
load average at start and end; and per side the checked-out commit and
whether its tree differs from it (``git status --porcelain`` prints
anything), both null outside a git checkout.  Under ``outputs``, per command
(keyed by its arguments) the exit codes, per stdout line (the output
directory written ``<out>``) ``identical`` or both versions, and per CSV
``identical`` (byte for byte) or per column the largest absolute and
relative difference, each with its data row; and per ``verify`` criterion,
from the first timed run of each side, ``identical apart from runtime=`` or
both lines.  The exit status is 1 if any run reported ``correct: false`` or
printed no result, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
CHECK_RUNS = 3  # timed runs of verify, and of Tier-1, per side
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
_COUNT = re.compile(r"(\d+) ([a-z]+)")
_ROUNDS = re.compile(r"^workload=\S+ seed=\S+ rounds=(\d+)", re.MULTILINE)
_RUNTIME = re.compile(r"runtime=\S+")
# the arguments of each command of the output record, which is keyed by them
OUTPUT_COMMANDS = (("simulate",), ("asymptotic",),
                   ("asymptotic", "--set", "simulation.dt=0.001"),
                   ("asymptotic", "--set", "parameters.fprime0=50"), ("speed",),
                   ("speed", "--set", "parameters.d=1e-7"),
                   ("speed", "--set", "parameters.fprime0=1e-30"))


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


def perfbench_rounds(stdout: str) -> int | None:
    """The round count on perfbench's ``workload=... rounds=N`` line, or None."""
    match = _ROUNDS.search(stdout)
    return int(match.group(1)) if match else None


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


def verdict(metric: dict, bound: float, better: str) -> dict:
    """``relative_change`` of a summarized metric, change median over parent
    median minus 1, ``parent_spread``, the parent's interquartile range over
    its median, and its ``verdict``: ``worse`` beyond ``bound`` in the
    direction that ``better`` ("lower" or "higher") calls worse, else
    ``unresolved`` when ``parent_spread`` exceeds ``bound``, else ``ok``."""
    parent = metric["parent"]
    relative = metric["change"]["median"] / parent["median"] - 1.0
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    worse = relative > bound if better == "lower" else relative < -bound
    return {"relative_change": relative, "parent_spread": spread,
            "verdict": "worse" if worse else "unresolved" if spread > bound else "ok"}


def end_to_end_bounds(root: Path) -> dict:
    """Name -> ``{"bound", "better"}`` for each end-to-end metric declared in
    ``root``'s BENCHMARK.json, or {} without one."""
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    except (OSError, ValueError, KeyError):
        return {}
    return {m["name"]: {"bound": m["bound"], "better": m["better"]} for m in declared}


def summarize(runs: list[dict], end_to_end: dict | None = None) -> dict:
    """Per workload and metric, each side's median and quartiles over the
    untraced pairs and the count of pairs where the change reads lower, and
    for the metrics named in ``end_to_end`` (name -> ``{"bound",
    "better"}``) the ``verdict`` fields; each side's median and quartiles of
    the round counts over those pairs; and each side's traced per-layer
    values.

    ``runs`` holds ``{"workload", "pair", "side", "trace", "rounds",
    "result"}`` records, ``result`` being a run's last-line JSON or None and
    ``rounds`` its round count or None."""
    end_to_end = end_to_end or {}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values()
                    if all(side in p and p[side]["result"] for side in SIDES)]
        results = [{side: p[side]["result"] for side in SIDES} for p in complete]
        entry = {
            "pairs": len(complete),
            "correct": {side: all(p[side]["correct"] for p in results) for side in SIDES},
            "failed_of_attempted": {
                side: [f"{p[side]['failed']}/{p[side]['attempted']}" for p in results]
                for side in SIDES},
            "rounds": {},
            "metrics": {},
        }
        for side in SIDES:
            counts = [p[side].get("rounds") for p in complete]
            if counts and None not in counts:
                entry["rounds"][side] = {**_stats(counts), "runs": counts}
        names = results[0]["parent"]["metrics"] if results else {}
        for name in names:
            values = {side: [p[side]["metrics"][name]["value"] for p in results]
                      for side in SIDES}
            metric = entry["metrics"][name] = {
                "unit": names[name]["unit"],
                **{side: {**_stats(values[side]), "runs": values[side]} for side in SIDES},
                "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            }
            if name in end_to_end:
                metric.update(verdict(metric, **end_to_end[name]))
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


def checkout_facts(root: Path) -> dict:
    """The commit checked out at ``root`` and whether the tree differs from
    it; both None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        return {"commit": head.stdout.strip(), "dirty": bool(git("status", "--porcelain").stdout)}
    except OSError:  # no git
        return {"commit": None, "dirty": None}


def _run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return last_json_line(proc.stdout), perfbench_rounds(proc.stdout)


def _time_verify(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cityroad.cli", "verify"], cwd=root,
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    return {"wall_s": round(wall, 3), "exit": proc.returncode,
            "passed": sum(line.startswith("PASS") for line in lines), "criteria": len(lines),
            "lines": lines}


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


def compare_lines(parent: list, change: list, same=lambda p, c: p == c,
                  label: str = "identical") -> list:
    """Per line ``label`` where ``same(parent_line, change_line)``, else both
    lines, a missing one as None."""
    return [label if p is not None and c is not None and same(p, c)
            else {"parent": p, "change": c} for p, c in itertools.zip_longest(parent, change)]


def _read_csv(path: Path):
    with open(path) as f:
        header = f.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def compare_csv(parent: Path, change: Path):
    """``identical`` if the files are equal byte for byte, else per column the
    largest absolute and relative (to the parent's value) difference and the
    data row of each, NaN against NaN counting as equal; where a file is
    missing, or the headers or row counts differ, both sides' of those."""
    if not (parent.exists() and change.exists()):
        return {"exists": {"parent": parent.exists(), "change": change.exists()}}
    if filecmp.cmp(parent, change, shallow=False):
        return "identical"
    (p_head, p), (c_head, c) = _read_csv(parent), _read_csv(change)
    if p_head != c_head or p.shape != c.shape:
        return {"header": {"parent": p_head, "change": c_head},
                "rows": {"parent": len(p), "change": len(c)}}
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(np.isnan(p) & np.isnan(c), 0.0, np.abs(c - p))
        diff = np.where(np.isnan(diff), np.inf, diff)  # NaN against a number
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(p))
    return {name: {"max_abs": float(diff[:, k].max()), "abs_row": int(diff[:, k].argmax()),
                   "max_rel": float(rel[:, k].max()), "rel_row": int(rel[:, k].argmax())}
            for k, name in enumerate(p_head)}


def compare_outputs(dirs: dict, runs: dict) -> dict:
    """One command's record from each side's output directory (``dirs``) and
    ``{"exit", "stdout"}`` (``runs``): exit codes, stdout lines and CSVs."""
    names = sorted({f.name for side in SIDES for f in dirs[side].glob("*.csv")})
    exits = {side: runs[side]["exit"] for side in SIDES}
    return {"exit": "identical" if exits["parent"] == exits["change"] else exits,
            "stdout": compare_lines(runs["parent"]["stdout"], runs["change"]["stdout"]),
            "files": {name: compare_csv(dirs["parent"] / name, dirs["change"] / name)
                      for name in names}}


def _run_command(root: Path, args, outdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "cityroad.cli", *args,
                           "--set", f"output.dir={outdir}"],
                          cwd=root, env=env, capture_output=True, text=True)
    return {"exit": proc.returncode,
            "stdout": [line.replace(str(outdir), "<out>") for line in proc.stdout.splitlines()]}


def output_record(roots: dict, verify: dict) -> dict:
    """Each OUTPUT_COMMANDS command compared across the sides, each side run
    into a fresh directory, and the criteria of each side's first verify run."""
    record = {}
    for args in OUTPUT_COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            dirs = {side: Path(tmp) / side for side in SIDES}
            runs = {side: _run_command(roots[side], args, dirs[side]) for side in SIDES}
            record[" ".join(args)] = compare_outputs(dirs, runs)
    record["verify"] = compare_lines(
        *(verify[side]["runs"][0]["lines"] for side in SIDES),
        same=lambda p, c: _RUNTIME.sub("", p) == _RUNTIME.sub("", c),
        label="identical apart from runtime=")
    return record


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

    checkouts = {side: checkout_facts(roots[side]) for side in SIDES}
    load_start = os.getloadavg()
    runs = []
    for workload in args.workloads:
        for pair in range(args.pairs + 1):
            trace = pair == args.pairs
            order = side_order(pair)
            for side in order:
                result, rounds = _run_perfbench(roots[side], workload, args.seed0 + pair,
                                                args.seconds, trace)
                runs.append({"workload": workload, "pair": pair, "seed": args.seed0 + pair,
                             "side": side, "first": side == order[0], "trace": trace,
                             "rounds": rounds, "result": result})
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
                      "change_lower = pairs in which the change's value is lower; "
                      "relative_change = change median / parent median - 1, "
                      "parent_spread = the parent's IQR / median, and verdict from the "
                      "change's BENCHMARK.json bound and better: worse beyond the bound, "
                      "else unresolved when parent_spread exceeds it, else ok",
        "machine": {**machine_facts(), "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
        "checkouts": checkouts,
        "summary": summarize(runs, end_to_end_bounds(roots["change"])),
        "verify": verify,
        "tier1": tier1,
        "outputs": output_record(roots, verify),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
