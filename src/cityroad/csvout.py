"""CSV output: every float printed with 17 significant digits, so identical
runs give byte-identical files, and the process that writes trajectories.

``TrajectoryWriter`` formats and writes a run's trajectory CSVs in a second
process while the run steps: the run hands it each snapshot as it is
recorded, and the files appear, renamed from ``<name>.part``, only when the
run and the writer have both succeeded.  The per-snapshot formatters
(``rho_block``, ``edge_block``, ``asym_block``) fill ``%.17g`` templates
built once per run from the first snapshot's window.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "write_csv",
    "row_lines",
    "rho_block",
    "edge_block",
    "asym_block",
    "TrajectoryWriter",
]


def fmt(x) -> str:
    """``x`` with 17 significant digits."""
    return format(float(x), ".17g")


def _filled(template: str, t: str, values: np.ndarray) -> str:
    """One block of CSV lines: ``template`` with each ``{t}`` set to the
    time ``t`` and its ``%.17g`` slots filled with ``values`` in row-major
    order (``'%.17g' % x`` prints exactly what fmt prints, nan and -0
    included)."""
    return template.replace("{t}", t) % tuple(values.ravel().tolist())


def write_csv(path: Path, header: list[str], blocks) -> None:
    """Write the header, then each block of formatted lines as it is made."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def row_lines(rows):
    """One line per row: ints and strings as they are, floats with 17 digits."""
    for row in rows:
        yield ",".join(str(c) if isinstance(c, (int, str)) else fmt(c) for c in row) + "\n"


def rho_block(s0):
    """The formatter of one snapshot's time,j,rho lines on the window of
    snapshot ``s0`` (every snapshot of a run shares it)."""
    template = "".join(f"{{t}},{j},%.17g\n" for j in range(s0.j_min, s0.j_max + 1))
    return lambda s: _filled(template, fmt(s.time), s.rho)


def edge_block(s0):
    """The formatter of one snapshot's time,j,x,v lines, edge after edge, on
    the window of snapshot ``s0``."""
    x = [fmt(xi) for xi in np.arange(s0.m + 1) / s0.m]
    template = "".join(f"{{t}},{j},{xi},%.17g\n"
                       for j in range(s0.j_min, s0.j_max) for xi in x)
    return lambda s: _filled(template, fmt(s.time), s.edges)


def asym_block(s0):
    """The formatter of one snapshot's time,j,V,P lines of the limit system
    (each edge's one level V and the vertex densities P) on the window of
    snapshot ``s0``; the last vertex has no edge and gets V = nan."""
    template = "".join(f"{{t}},{j},%.17g,%.17g\n" for j in range(s0.j_min, s0.j_max + 1))
    return lambda s: _filled(template, fmt(s.time),
                             np.column_stack((np.append(s.edges[:, 0], math.nan), s.rho)))


def _write_blocks(data, data_end, status, files) -> None:
    """Body of the writer process: write each ``(part path, header, block)``
    of ``files``, then, for every snapshot received on ``data`` until the
    parent closes it, the snapshot's lines in each file.  Sends None on
    ``status`` when done, or the error that stopped it and exits 1."""
    data_end.close()  # the parent's end, inherited by fork: EOF needs every copy closed
    try:
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(part, "w")) for part, _, _ in files]
            for fh, (_, header, _) in zip(handles, files):
                fh.write(",".join(header) + "\n")
            formatters = None
            while True:
                try:
                    s = data.recv()
                except EOFError:
                    break
                if formatters is None:
                    formatters = [block(s) for _, _, block in files]
                for fh, lines_of in zip(handles, formatters):
                    fh.write(lines_of(s))
    except Exception as exc:  # the process boundary: report it to the parent
        status.send(f"{type(exc).__name__}: {exc}")
        sys.exit(1)
    status.send(None)


class TrajectoryWriter:
    """Writes a run's trajectory CSVs in a second process while it steps.

    ``files`` holds one ``(name, header, block)`` per CSV: its name in
    ``outdir``, its header columns and its per-snapshot formatter (such as
    ``rho_block``), which the writer builds from the first snapshot.

    ``send`` is the run's per-snapshot callback: it pipes the snapshot to the
    writer, and blocks while the writer is a pipe's worth behind.  The
    writer fills ``<name>.part`` files; on leaving the ``with`` block they
    are renamed into place if the run and the writer both succeeded, and
    deleted otherwise.  A failed writer is raised as an OSError; an error of
    the run itself propagates unchanged.

    The process comes from the default context (fork on Linux): the child
    starts at once with the modules already loaded, formats with Python and
    numpy only (no BLAS) and leaves through ``os._exit``, so it never returns
    into an in-process caller.
    """

    def __init__(self, outdir: Path, files):
        self.paths = [outdir / name for name, _, _ in files]
        self.parts = [path.with_name(path.name + ".part") for path in self.paths]
        data, self._data = multiprocessing.Pipe(duplex=False)
        self._status, status = multiprocessing.Pipe(duplex=False)
        specs = [(part, header, block) for part, (_, header, block) in zip(self.parts, files)]
        sys.stdout.flush()  # a forked child would copy unflushed buffers
        sys.stderr.flush()
        self._proc = multiprocessing.Process(
            target=_write_blocks, args=(data, self._data, status, specs), daemon=True)
        self._proc.start()
        data.close()
        status.close()

    def send(self, snapshot) -> None:
        self._data.send(snapshot)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._data.close()
        self._proc.join()
        try:
            failure = self._status.recv()
        except EOFError:
            failure = None
        self._status.close()
        if failure is None and self._proc.exitcode != 0:
            failure = f"exit code {self._proc.exitcode}"
        if exc_type is None and failure is None:
            for part, path in zip(self.parts, self.paths):
                os.replace(part, path)
            return False
        for part in self.parts:
            with contextlib.suppress(OSError):
                part.unlink()
        if failure is not None:
            raise OSError(f"trajectory writer failed: {failure}") from exc
        return False
