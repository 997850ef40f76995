"""cityroad benchmark: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload {simulate,limit,speeds}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
The run first times ``SETUP_PROBES`` fresh interpreters, one after another,
from start to the moment the workload's inputs are built (``setup_s``).  Then
it runs whole rounds of the workload in this process until another round would
pass ``--seconds`` (at least one), and checks every output.  With ``--trace 0``
it reports the end-to-end metrics, per-round medians of wall and CPU time plus
the peak resident memory; with ``--trace 1`` it wraps the package's public
functions (``tracer.py``), reports per-layer medians over the rounds and writes
the spans of the last round to ``.perfbench_results/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RESULTS = ROOT / ".perfbench_results"
WORKLOAD_NAMES = ("simulate", "limit", "speeds")
SETUP_PROBES = 9
READY = "ready"


def _import_workloads():
    """Import the workloads, and cityroad with them, from this checkout only."""
    sys.path.insert(0, str(SRC))
    import cityroad
    import workloads

    if Path(cityroad.__file__).resolve().parent != SRC / "cityroad":
        raise SystemExit(f"error: cityroad imported from {cityroad.__file__}, not {SRC}")
    return workloads


def _probe(workload: str, seed: int) -> int:
    """Body of one setup probe: import, build the inputs, say so."""
    _import_workloads().WORKLOADS[workload](seed, OUT / workload)
    print(READY, flush=True)
    return 0


def _time_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != READY or code != 0:
        raise SystemExit(f"error: setup probe exited {code} before building its inputs")
    return elapsed


def _clear_package_caches():
    """Empty the package's functools caches, so every round starts as a fresh
    command would."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cityroad" or name.startswith("cityroad.")):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file()) if path.is_dir() else 0


def _layer_metrics(totals: dict, wall: float, bytes_written: int) -> dict:
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    lat = "kernels.advance_lattice"
    asym = "kernels.advance_asym"
    cli_self = get("cli.main", "self")
    return {
        f"{lat}.busy_s": get(lat, "busy"),
        f"{lat}.steps": get(lat, "steps"),
        f"{lat}.us_per_step": 1e6 * ratio(get(lat, "busy"), get(lat, "steps")),
        f"{lat}.node_updates_per_s": ratio(get(lat, "node_updates"), get(lat, "busy")),
        f"{asym}.busy_s": get(asym, "busy"),
        f"{asym}.steps": get(asym, "steps"),
        f"{asym}.us_per_step": 1e6 * ratio(get(asym, "busy"), get(asym, "steps")),
        "edge_solver.assemble_step_operator.busy_s": get("edge_solver.assemble_step_operator", "busy"),
        "edge_solver.assemble_step_operator.calls": get("edge_solver.assemble_step_operator", "calls"),
        "lattice_sim.simulate.self_s": get("lattice_sim.simulate", "self"),
        "asymptotic.simulate_asymptotic.self_s": get("asymptotic.simulate_asymptotic", "self"),
        "dispersion.compute_c_star.busy_s": get("dispersion.compute_c_star", "busy"),
        "dispersion.compute_c_star.calls": get("dispersion.compute_c_star", "calls"),
        "asymptotic.compute_c_star_inf.busy_s": get("asymptotic.compute_c_star_inf", "busy"),
        "asymptotic.compute_c_star_inf.calls": get("asymptotic.compute_c_star_inf", "calls"),
        "front_speed.estimate_speed.busy_s": get("front_speed.estimate_speed", "busy"),
        "cli.self_s": cli_self,
        "cli.bytes_written": float(bytes_written) if get("cli.main", "calls") else 0.0,
        "cli.mb_per_s": ratio(bytes_written / 1e6, cli_self) if get("cli.main", "calls") else 0.0,
        "trace.wall_s": wall,
    }


def _units(names) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return {name: table[name] for name in names}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "cityroad" / "__init__.py").is_file():
        raise SystemExit(f"error: no cityroad package under {SRC}")
    setup = [_time_setup(workload, seed) for _ in range(SETUP_PROBES)]
    workloads = _import_workloads()
    outdir = OUT / workload
    shutil.rmtree(outdir, ignore_errors=True)
    os.environ.pop("CITYROAD_OUTDIR", None)  # output.dir must decide
    wl = workloads.WORKLOADS[workload](seed, outdir)

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    walls, cpus, layer_rounds = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            _clear_package_caches()
            gc.collect()
            if tracer is not None:
                tracer.spans.clear()
                tracer.install()
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                n_ops, n_failed = wl.run_round()
            finally:
                w1, c1 = time.perf_counter(), time.process_time()
                if tracer is not None:
                    tracer.uninstall()
            walls.append(w1 - w0)
            cpus.append(c1 - c0)
            attempted += n_ops
            failed += n_failed
            if tracer is not None:
                layer_rounds.append(
                    _layer_metrics(tracer.layer_totals(), w1 - w0, _dir_bytes(outdir)))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        errors = wl.check()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    for line in sorted(set(wl.failures)):
        print(f"failed operation: {line}", file=sys.stderr)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        RESULTS.mkdir(exist_ok=True)
        spans = [{"layer": s[0], "start": s[1], "end": s[2], "parent": s[3], "counts": s[4]}
                 for s in tracer.spans]
        (RESULTS / f"trace_{workload}_seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "rounds": layer_rounds, "median": values,
             "last_round_spans": spans}, indent=1))
    units = _units(values)
    print(f"workload={workload} seed={seed} rounds={len(walls)} "
          f"attempted={attempted} failed={failed} correct={not errors}")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return _probe(args.workload, args.seed)
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"error: {ROOT / 'BENCHMARK.json'} is missing")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
