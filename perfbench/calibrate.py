"""A fixed reference kernel that reads the host's current speed.

The benchmark runs on shared virtual CPUs whose speed drifts by up to
about 1.6x over seconds to minutes, and CPU time drifts with wall time, so
a slow period cannot be told from a slow program by a clock alone.
worker.py therefore runs this kernel right before and right after every
invocation, and run.py reports each invocation's wall time in units of
the kernel's time around it. A change to pszsim moves that ratio; a
change of host speed moves both sides alike and largely cancels out.

The kernel does the kinds of work pszsim does, in about 0.3 s on a
2.1 GHz Xeon: 8x8 complex solves, numpy arithmetic on short vectors, a
pure-Python cell walk with dict and tuple traffic, and float formatting.
It imports nothing from pszsim and its inputs are fixed, so it is the same
work on every commit.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 1200


def _inputs():
    rng = np.random.default_rng(20260101)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = a @ a.conj().T + 8.0 * np.eye(8)
    g = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    grid = rng.standard_normal((16, 16)).tolist()
    return h, g, grid


_H, _G, _GRID = _inputs()


def kernel(rounds: int = ROUNDS) -> float:
    """Run the fixed work; returns a checksum so that nothing is skipped."""
    acc = 0.0
    for r in range(rounds):
        for k in range(4):
            b = _G[k].conj()
            x = np.linalg.solve(_H + (1e-3 * (r + k)) * np.eye(8), b)
            p = np.abs(_G @ x) ** 2
            acc += float(10.0 * np.log10(p.sum() / (p.min() + 1e-12)))
        edges = {}
        grid = _GRID
        for iy in range(len(grid) - 1):
            row, below = grid[iy], grid[iy + 1]
            for ix in range(len(row) - 1):
                corners = (row[ix] > 0.0, row[ix + 1] > 0.0, below[ix + 1] > 0.0, below[ix] > 0.0)
                if any(corners) and not all(corners):
                    edges[(ix, iy)] = (ix + row[ix] / (row[ix] - row[ix + 1] + 1e-9), iy)
        acc += len(edges)
        if r % 8 == 0:
            acc += len(",".join(f"{v:.9g}" for xy in edges.values() for v in xy))
    return acc


def timed() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
