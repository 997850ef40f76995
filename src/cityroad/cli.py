"""Command-line front end: config parsing, experiment orchestration, CSV output.

Configuration is flat ``block.key = value`` text (diff-friendly, no schema
engine); every float in data files prints with 17 significant digits so
identical configs produce byte-identical CSVs.

Commands: speed, simulate, asymptotic, sweep, verify.  Exit codes: 0 success;
1 a run finished with a contaminated window, or a verify criterion failed;
2 configuration error or inadmissible parameters; 3 blow-up; 4 a solver
post-check or a-priori bound check failed; 5 no front to measure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .asymptotic import (
    compute_c_star_inf,
    large_d_convergence_experiment,
    simulate_asymptotic,
)
from .dispersion import compute_c_star
from .front_speed import NoCrossingError, estimate_speed
from .lattice_sim import (
    BlowUpError,
    InitialData,
    SimulationConfig,
    default_c_upper,
    simulate,
)
from .model import Parameters, logistic, rescale_to_unit_length

__all__ = ["ExperimentConfig", "parse_config", "run_command", "main"]

_OUTDIR_ENV = "CITYROAD_OUTDIR"

# Error class -> exit code; the first match wins, so subclasses come first
# (BlowUpError and NoCrossingError are RuntimeErrors, ConfigError a ValueError).
_EXIT_CODES = (
    (ValueError, 2),
    (BlowUpError, 3),
    (NoCrossingError, 5),
    (RuntimeError, 4),
)

# key -> (converter, default); the standard (1,1,1,1) defaults drive every
# command out of the box.
_BOOLEANS = {"true": True, "false": False}


def _floats_list(text: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return [float(x) for x in parts]


_SCHEMA = {
    "parameters.alpha": (float, 1.0),
    "parameters.beta": (float, 1.0),
    "parameters.d": (float, 1.0),
    "parameters.ell": (float, 1.0),
    "parameters.fprime0": (float, 1.0),
    "simulation.T": (float, 50.0),
    "simulation.dt": (float, 1e-3),
    "simulation.m": (int, 32),
    "simulation.margin": (int, 4),
    "simulation.stride": (int, 0),
    "simulation.c_upper": (float, 0.0),  # 0 = automatic
    "initial.kind": (str, "left_block"),
    "initial.n": (int, 5),
    "initial.amplitude": (float, 1.0),
    "initial.j0": (int, 0),
    "sweep.parameter": (str, "alpha"),
    "sweep.values": (_floats_list, []),
    "measurement.threshold": (float, 0.5),
    "measurement.window": (_floats_list, [0.5, 1.0]),
    "largeD.eps_values": (_floats_list, []),
    "largeD.T": (float, 5.0),
    "output.dir": (str, "out"),
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Validated experiment description assembled from config text plus
    --set overrides."""

    raw: dict = field(default_factory=dict)

    @property
    def parameters(self) -> Parameters:
        return Parameters(
            alpha=self.raw["parameters.alpha"],
            beta=self.raw["parameters.beta"],
            d=self.raw["parameters.d"],
            ell=self.raw["parameters.ell"],
            nonlinearity=logistic(self.raw["parameters.fprime0"]),
        )

    @property
    def normalized_parameters(self) -> Parameters:
        return rescale_to_unit_length(self.parameters).params

    @property
    def simulation(self) -> SimulationConfig:
        c_up = self.raw["simulation.c_upper"]
        return SimulationConfig(
            T=self.raw["simulation.T"],
            dt=self.raw["simulation.dt"],
            m=self.raw["simulation.m"],
            window_margin=self.raw["simulation.margin"],
            snapshot_stride=self.raw["simulation.stride"],
            c_upper_guess=c_up if c_up > 0 else None,
        )

    @property
    def initial_data(self) -> InitialData:
        kind = self.raw["initial.kind"]
        if kind == "left_block":
            return InitialData.left_block()
        if kind == "sine_bump":
            return InitialData.sine_bump(self.raw["initial.n"], self.raw["initial.amplitude"])
        if kind == "point_mass":
            return InitialData.point_mass(self.raw["initial.j0"], self.raw["initial.amplitude"])
        raise ConfigError(f"initial.kind must be left_block|sine_bump|point_mass, got {kind!r}")

    @property
    def threshold(self) -> float:
        return self.raw["measurement.threshold"]

    @property
    def window_fraction(self) -> tuple[float, float]:
        win = self.raw["measurement.window"]
        if len(win) != 2:
            raise ConfigError("measurement.window needs two comma-separated fractions")
        return (win[0], win[1])

    @property
    def outdir(self) -> Path:
        return Path(os.environ.get(_OUTDIR_ENV, self.raw["output.dir"]))

    def validate(self):
        _ = self.parameters
        _ = self.simulation
        _ = self.initial_data
        thr = self.threshold
        if not (0.0 < thr < 1.0):
            raise ConfigError("measurement.threshold must lie in (0, 1)")
        lo, hi = self.window_fraction
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError("measurement.window must satisfy 0 <= lo < hi <= 1")
        if self.raw["sweep.parameter"] not in ("alpha", "beta", "d", "fprime0"):
            raise ConfigError("sweep.parameter must be one of alpha|beta|d|fprime0")
        for eps in self.raw["largeD.eps_values"]:
            if eps <= 0:
                raise ConfigError("largeD.eps_values must be positive")


def _apply_assignment(raw: dict, key: str, value: str, where: str):
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    conv, _ = _SCHEMA[key]
    try:
        raw[key] = conv(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value for {key!r}: {exc}") from exc


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse the flat key-value config file plus --set overrides.

    An empty or missing file yields all defaults.  Parse errors carry the line
    number; unknown keys and inadmissible values are rejected by name.
    """
    raw = {key: default for key, (_, default) in _SCHEMA.items()}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            _apply_assignment(raw, key.strip(), value.strip(), f"{path}:{lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, value = item.partition("=")
        _apply_assignment(raw, key.strip(), value.strip(), f"--set {key.strip()}")
    cfg = ExperimentConfig(raw)
    try:
        cfg.validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_all(values: np.ndarray):
    """The floats of an array, each as _fmt prints it."""
    return map(format, values.tolist(), repeat(".17g"))


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write the header, then each block of formatted lines as it is made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _lines(rows):
    """One line per row: ints and strings as they are, floats with 17 digits."""
    for row in rows:
        yield ",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row) + "\n"


def _cmd_speed(cfg: ExperimentConfig) -> int:
    p = cfg.normalized_parameters
    res = compute_c_star(p)
    inf = compute_c_star_inf(p)
    scan = res.scan
    rows = zip(scan.lam, scan.delta, scan.y, scan.mu, scan.c)
    _write_csv(cfg.outdir / "dispersion_scan.csv", ["lambda", "delta", "y", "mu", "c"],
               _lines(rows))
    print(
        f"lambda0={_fmt(res.lambda0)} lambda_star={_fmt(res.lambda_star)} "
        f"mu_star={_fmt(res.mu_star)} c_star={_fmt(res.c_star)} "
        f"c_star_inf={_fmt(inf.c_star_inf)}"
    )
    if len(res.local_minima) > 1:
        print(f"note: {len(res.local_minima)} grid-local minima found "
              "(uniqueness of the minimizer is conjectural)")
    print(f"wrote {cfg.outdir / 'dispersion_scan.csv'}")
    return 0


def _trajectory_blocks(traj):
    """time,j,rho lines, one block per snapshot."""
    for s in traj.snapshots:
        t = _fmt(s.time)
        yield "".join(f"{t},{j},{r}\n"
                      for j, r in zip(range(s.j_min, s.j_max + 1), _fmt_all(s.rho)))


def _edge_blocks(traj):
    """time,j,x,v lines, one block per snapshot."""
    m = traj.final.m
    x = list(_fmt_all(np.arange(m + 1) / m))
    for s in traj.snapshots:
        t = _fmt(s.time)
        for j, row in zip(range(s.j_min, s.j_max), s.edges):
            yield "".join(f"{t},{j},{xi},{vi}\n" for xi, vi in zip(x, _fmt_all(row)))


def _window_sized(cfg: ExperimentConfig, p: Parameters, c_star: float | None) -> SimulationConfig:
    """The run's controls, the automatic window sized from the c* already
    solved for this run instead of a second solve."""
    sim = cfg.simulation
    if sim.c_upper_guess is not None:
        return sim
    return replace(sim, c_upper_guess=default_c_upper(p, c_star))


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    p = cfg.normalized_parameters
    res = compute_c_star(p) if p.fprime0 > 0 else None
    sim = _window_sized(cfg, p, None if res is None else res.c_star)
    traj = simulate(cfg.initial_data, sim, p)
    out = cfg.outdir
    _write_csv(out / "trajectory_rho.csv", ["time", "j", "rho"], _trajectory_blocks(traj))
    _write_csv(out / "trajectory_edge.csv", ["time", "j", "x", "v"], _edge_blocks(traj))
    _write_csv(out / "mass.csv", ["time", "mass"], _lines(zip(traj.times, traj.mass)))
    if res is not None:
        try:
            trace = estimate_speed(traj, cfg.threshold, cfg.window_fraction)
        except NoCrossingError as exc:
            print(f"front not measurable: {exc}")
        else:
            rel = abs(trace.fitted_speed - res.c_star) / res.c_star
            print(
                f"measured_speed={_fmt(trace.fitted_speed)} c_star={_fmt(res.c_star)} "
                f"rel_error={_fmt(rel)} fit_residual={_fmt(trace.fit_residual)}"
            )
    else:
        drift = float(np.max(np.abs(traj.mass - traj.mass[0])) / abs(traj.mass[0]))
        print(f"reaction-free run: relative_mass_drift={_fmt(drift)}")
    print(f"compat_max_residual={_fmt(traj.compat_max_residual)} "
          f"contaminated={str(traj.contaminated).lower()}")
    print(f"wrote {out / 'trajectory_rho.csv'}, {out / 'trajectory_edge.csv'}, {out / 'mass.csv'}")
    return 1 if traj.contaminated else 0


def _asym_blocks(traj):
    """time,j,V,P lines, one block per snapshot; the last vertex has no edge
    and gets V = nan."""
    for s in traj.snapshots:
        t = _fmt(s.time)
        V = [*_fmt_all(s.V), _fmt(math.nan)]
        yield "".join(f"{t},{j},{v},{pj}\n"
                      for j, v, pj in zip(range(s.j_min, s.j_max + 1), V, _fmt_all(s.P)))


def _cmd_asymptotic(cfg: ExperimentConfig) -> int:
    p = cfg.normalized_parameters
    traj = simulate_asymptotic(cfg.initial_data, cfg.simulation, p)
    out = cfg.outdir
    _write_csv(out / "asymptotic_vp.csv", ["time", "j", "V", "P"], _asym_blocks(traj))
    _write_csv(out / "asymptotic_mass.csv", ["time", "mass"], _lines(zip(traj.times, traj.mass)))
    if p.fprime0 > 0:
        inf = compute_c_star_inf(p)
        try:
            trace = estimate_speed(traj, cfg.threshold, cfg.window_fraction)
        except NoCrossingError as exc:
            print(f"front not measurable: {exc}")
        else:
            rel = abs(trace.fitted_speed - inf.c_star_inf) / inf.c_star_inf
            print(
                f"measured_speed={_fmt(trace.fitted_speed)} c_star_inf={_fmt(inf.c_star_inf)} "
                f"rel_error={_fmt(rel)} contaminated={str(traj.contaminated).lower()}"
            )
    files = [out / "asymptotic_vp.csv", out / "asymptotic_mass.csv"]
    eps_values = cfg.raw["largeD.eps_values"]
    if eps_values:
        rows = large_d_convergence_experiment(
            eps_values, cfg.initial_data, cfg.raw["largeD.T"], p,
            m=cfg.simulation.m, dt=cfg.simulation.dt,
        )
        _write_csv(out / "large_d_errors.csv", ["epsilon", "error"], _lines(rows))
        files.append(out / "large_d_errors.csv")
        for eps, err in rows:
            print(f"epsilon={_fmt(eps)} error={_fmt(err)}")
    print("wrote " + ", ".join(str(f) for f in files))
    return 1 if traj.contaminated else 0


def _sweep_point(args):
    raw, name, value = args
    cfg = ExperimentConfig(dict(raw))
    cfg.raw[f"parameters.{name}"] = value
    p = cfg.normalized_parameters
    theory = compute_c_star(p).c_star
    traj = simulate(cfg.initial_data, _window_sized(cfg, p, theory), p)
    trace = estimate_speed(traj, cfg.threshold, cfg.window_fraction)
    rel = abs(trace.fitted_speed - theory) / theory
    return (name, value, theory, trace.fitted_speed, rel, traj.contaminated)


def _cmd_sweep(cfg: ExperimentConfig, parallel: bool = False) -> int:
    name = cfg.raw["sweep.parameter"]
    values = cfg.raw["sweep.values"]
    if not values:
        raise ConfigError("sweep.values is empty: nothing to sweep")
    jobs = [(cfg.raw, name, v) for v in values]
    if parallel and len(jobs) > 1:
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]
    rows = [(n, v, th, ms, rel) for (n, v, th, ms, rel, _) in results]
    _write_csv(cfg.outdir / "sweep.csv",
               ["param", "value", "c_theory", "c_measured", "rel_error"], _lines(rows))
    contaminated = False
    for n, v, th, ms, rel, bad in results:
        flag = " (window contaminated)" if bad else ""
        contaminated = contaminated or bad
        print(f"{n}={_fmt(v)} c_theory={_fmt(th)} c_measured={_fmt(ms)} rel_error={_fmt(rel)}{flag}")
    print(f"wrote {cfg.outdir / 'sweep.csv'}")
    return 1 if contaminated else 0


def _cmd_verify(only: list[int] | None) -> int:
    from .acceptance import run_criteria

    results = run_criteria(only=only)
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cityroad",
        description="City-road lattice invasion model: simulation and spreading speeds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("speed", "dispersion scan and spreading speeds"),
        ("simulate", "run the coupled system and measure the front"),
        ("asymptotic", "run the large-diffusion limit system"),
        ("sweep", "theory vs measured speed over a parameter sweep"),
        ("verify", "run the acceptance suite"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        if name != "verify":
            sp.add_argument("--config", default=None, help="path to key=value config file")
            sp.add_argument("--set", dest="sets", action="append", default=[],
                            metavar="KEY=VALUE", help="override one config key")
        if name == "sweep":
            sp.add_argument("--parallel", action="store_true",
                            help="run sweep points in parallel processes")
        if name == "verify":
            sp.add_argument("--only", default=None,
                            help="comma-separated criterion numbers to run")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            only = None
            if args.only:
                only = [int(x) for x in args.only.split(",") if x.strip()]
            return _cmd_verify(only)
        cfg = parse_config(args.config, args.sets)
        if args.command == "speed":
            return _cmd_speed(cfg)
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command == "asymptotic":
            return _cmd_asymptotic(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg, parallel=args.parallel)
        raise AssertionError(args.command)
    except (ValueError, RuntimeError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
