"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs whole rounds of the same
calls into cityroad (``run_round``, the timed part), and afterwards checks
every output against the oracle in ``oracle.py`` or against properties of the
method (``check``).  Operations are counted per round: one per command for
``simulate`` and ``limit``, one per solve for ``speeds``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import re
from pathlib import Path

import numpy as np

from cityroad import asymptotic, cli, dispersion
from cityroad.model import Parameters, logistic

# Fronts lag the linear speed by a delay that grows like log t, so a fitted
# speed lies a few percent below c* (or c*_inf) at T = 50.  These are the
# lags allowed.
SIMULATE_SPEED_LAG = 0.06
LIMIT_SPEED_LAG = 0.06
SPEED_REL_TOL = 1e-9
BOUND_TOL = 1e-9  # the package's own slack on its a-priori bounds

DEFAULT = (1.0, 1.0, 1.0, 1.0)  # (alpha, beta, d, f'(0)) of the default config
T_DEFAULT, M_DEFAULT, MARGIN, SNAPSHOTS = 50.0, 32, 4, 201


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _fields(text: str) -> dict:
    return dict(re.findall(r"(\w+)=(\S+)", text))


def _window_vertices(c_star: float, T: float) -> int:
    """Vertices of the window the package sizes for left-block data."""
    return 2 * (math.ceil(1.5 * c_star * T) + MARGIN) + 1


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class CommandWorkload:
    """A `cityroad` command at its default config, called in-process through
    ``cli.main``; the seed does not enter.  One operation per round."""

    def __init__(self, seed: int, outdir: Path):
        self.outdir = Path(outdir)
        self.argv = [self.command, "--set", f"output.dir={self.outdir}"]
        self.outputs: list[tuple[int, str]] = []
        self.failures: list[str] = []

    def run_round(self) -> tuple[int, int]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv)
        except Exception as exc:  # counted as failed, the run goes on
            self.failures.append(f"{self.command} raised {type(exc).__name__}: {exc}")
            return 1, 1
        self.outputs.append((code, buf.getvalue()))
        return 1, 0

    def check(self) -> list[str]:
        if not self.outputs:
            return ["no round completed"]
        errors = [f"round {i} printed other output than round 0"
                  for i, out in enumerate(self.outputs) if out != self.outputs[0]]
        code, text = self.outputs[-1]
        if code != 0:
            errors.append(f"exit code {code}: {text.strip()}")
        try:
            return errors + self.check_last(_fields(text))
        except (KeyError, OSError, ValueError) as exc:
            return errors + [f"output incomplete: {exc!r}"]


class Simulate(CommandWorkload):
    """``cityroad simulate`` at the default config; writes three CSVs."""

    command = "simulate"

    def check_last(self, out: dict) -> list[str]:
        import oracle

        errors = []
        c_ref = oracle.c_star(*DEFAULT)
        if _rel(float(out["c_star"]), c_ref) > SPEED_REL_TOL:
            errors.append(f"c_star {out['c_star']} differs from the oracle's {c_ref!r}")
        measured = float(out["measured_speed"])
        if not (1.0 - SIMULATE_SPEED_LAG) * c_ref <= measured < c_ref:
            errors.append(f"measured speed {measured} outside [(1-{SIMULATE_SPEED_LAG}) c*, c*)")
        if out.get("contaminated") != "false":
            errors.append("window contaminated")
        n_v = _window_vertices(c_ref, T_DEFAULT)
        rho = _load_csv(self.outdir / "trajectory_rho.csv")
        edge = _load_csv(self.outdir / "trajectory_edge.csv")
        mass = _load_csv(self.outdir / "mass.csv")
        expected = {
            "trajectory_rho.csv": (len(rho), SNAPSHOTS * n_v),
            "trajectory_edge.csv": (len(edge), SNAPSHOTS * (n_v - 1) * (M_DEFAULT + 1)),
            "mass.csv": (len(mass), SNAPSHOTS),
        }
        for name, (rows, want) in expected.items():
            if rows != want:
                errors.append(f"{name} has {rows} rows, expected {want}")
        if len(np.unique(rho[:, 0])) != SNAPSHOTS:
            errors.append("trajectory_rho.csv does not hold 201 snapshot times")
        beta_over_alpha = DEFAULT[1] / DEFAULT[0]
        for name, values, hi in (("rho", rho[:, 2], 1.0), ("v", edge[:, 3], beta_over_alpha)):
            if not (values.min() >= -BOUND_TOL and values.max() <= hi + BOUND_TOL):
                errors.append(f"{name} leaves [0, {hi}]: [{values.min()}, {values.max()}]")
        return errors


class Limit(CommandWorkload):
    """``cityroad asymptotic`` at the default config: the fast-diffusion limit."""

    command = "asymptotic"

    def check_last(self, out: dict) -> list[str]:
        import oracle

        errors = []
        c_ref = oracle.c_star_inf(*DEFAULT)
        if _rel(float(out["c_star_inf"]), c_ref) > SPEED_REL_TOL:
            errors.append(f"c_star_inf {out['c_star_inf']} differs from the oracle's {c_ref!r}")
        measured = float(out["measured_speed"])
        if not (1.0 - LIMIT_SPEED_LAG) * c_ref <= measured < c_ref:
            errors.append(f"measured speed {measured} outside [(1-{LIMIT_SPEED_LAG}) c*_inf, c*_inf)")
        if out.get("contaminated") != "false":
            errors.append("window contaminated")
        # The limit run sizes its window from the coupled system's c*.
        n_v = _window_vertices(oracle.c_star(*DEFAULT), T_DEFAULT)
        vp = _load_csv(self.outdir / "asymptotic_vp.csv")
        if len(vp) != SNAPSHOTS * n_v:
            errors.append(f"asymptotic_vp.csv has {len(vp)} rows, expected {SNAPSHOTS * n_v}")
        V = vp[:, 2][~np.isnan(vp[:, 2])]
        P = vp[:, 3]
        if len(V) != SNAPSHOTS * (n_v - 1):
            errors.append("asymptotic_vp.csv does not hold one V per edge")
        for name, values, hi in (("P", P, 1.0), ("V", V, DEFAULT[1] / DEFAULT[0])):
            if not (values.min() >= -BOUND_TOL and values.max() <= hi + BOUND_TOL):
                errors.append(f"{name} leaves [0, {hi}]: [{values.min()}, {values.max()}]")
        return errors


class Speeds:
    """``compute_c_star`` and ``compute_c_star_inf`` over the box [0.1, 10]^4.

    c* runs at seeded log-uniform points and their time-rescaled twins
    k·(alpha, beta, d, f'(0)), k log-uniform in [0.1, 10].  c*_inf fails its
    tangency post-check on about two thirds of random points, so it runs on
    the fixed grid {0.1, 1, 10}^4 (with c* there too, for c* < c*_inf) and
    its twins at k = 2: the failures then repeat exactly whatever the seed.
    Two fixed probes fail every time today: c* at d = 1e-7 (threshold
    overflow) and c*_inf at (1, 1, 1, 2) (tangency residual).
    """

    SEEDED_POINTS = 100
    GRID = (0.1, 1.0, 10.0)
    GRID_TWIN = 2.0

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng(seed)
        lo, hi = math.log(0.1), math.log(10.0)
        points = np.exp(rng.uniform(lo, hi, size=(self.SEEDED_POINTS, 4)))
        ks = np.exp(rng.uniform(lo, hi, size=self.SEEDED_POINTS))
        ops = []  # (solver, (alpha, beta, d, f'(0)))
        self.twins = []  # (solver, index of p, index of k p, k)
        for p, k in zip(points, ks):
            p = tuple(float(v) for v in p)
            self.twins.append(("c*", len(ops), len(ops) + 1, float(k)))
            ops += [("c*", p), ("c*", tuple(float(k) * v for v in p))]
        self.pairs = []  # (index of c* at p, index of c*_inf at p)
        for p in itertools.product(self.GRID, repeat=4):
            self.pairs.append((len(ops), len(ops) + 1))
            self.twins.append(("c*_inf", len(ops) + 1, len(ops) + 2, self.GRID_TWIN))
            ops += [("c*", p), ("c*_inf", p), ("c*_inf", tuple(self.GRID_TWIN * v for v in p))]
        ops += [("c*", (1.0, 1.0, 1e-7, 1.0)), ("c*_inf", (1.0, 1.0, 1.0, 2.0))]
        self.ops = ops
        self.calls = [(self._solver(kind), Parameters(a, b, d, nonlinearity=logistic(f)))
                      for kind, (a, b, d, f) in ops]
        self.rounds: list[list[float | None]] = []
        self.failures: list[str] = []

    @staticmethod
    def _solver(kind):
        # Looked up at call time, so the traced run sees its wrappers.
        if kind == "c*":
            return lambda p: dispersion.compute_c_star(p).c_star
        return lambda p: asymptotic.compute_c_star_inf(p).c_star_inf

    def run_round(self) -> tuple[int, int]:
        values: list[float | None] = []
        for solve, p in self.calls:
            try:
                values.append(solve(p))
            except RuntimeError as exc:  # a solver's post-check: a failed operation
                values.append(None)
                if not self.rounds:
                    self.failures.append(str(exc))
        self.rounds.append(values)
        return len(values), values.count(None)

    def check(self) -> list[str]:
        import oracle

        if not self.rounds:
            return ["no round completed"]
        values = self.rounds[0]
        errors = [f"round {i} returned other speeds than round 0"
                  for i, vals in enumerate(self.rounds) if vals != values]
        for (kind, p), got in zip(self.ops, values):
            if got is None:
                continue
            ref = (oracle.c_star if kind == "c*" else oracle.c_star_inf)(*p)
            if _rel(got, ref) > SPEED_REL_TOL:
                errors.append(f"{kind}{p} = {got!r}, oracle {ref!r}")
        for kind, i, j, k in self.twins:
            if values[i] is not None and values[j] is not None:
                if _rel(values[j], k * values[i]) > SPEED_REL_TOL:
                    errors.append(f"{kind} breaks time rescaling at {self.ops[i][1]}, k={k}")
        for i, j in self.pairs:
            if values[i] is not None and values[j] is not None and not values[i] < values[j]:
                errors.append(f"c* >= c*_inf at {self.ops[i][1]}")
        sample = self.twins[:20]  # the seeded points come first
        errors += oracle.self_check([self.ops[i][1] for _, i, _, _ in sample],
                                    [k for *_, k in sample])
        return errors


WORKLOADS = {"simulate": Simulate, "limit": Limit, "speeds": Speeds}
