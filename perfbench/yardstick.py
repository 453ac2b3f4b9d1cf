"""Fixed reference kernels that measure how fast the machine is right now.

Other machines on the same host slow a run down in phases that last from
seconds to many minutes, by up to 40%, so a run's raw replicates per second
says as much about the host as about netar.  Each workload therefore runs a
fixed kernel of the same kind of work before every timed call: Python-level
loops over 4×4 matrices, LAPACK on ~300-column Gram matrices, or array
throughput on (500, 33, 33) stacks.  The kernels use numpy only, never netar,
so no change to the program can change them.  ``reps_per_ref`` divides the
run's replicates by the time spent in calls measured in kernel runs, which
cancels most of the host's drift.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def small_matrix_loop() -> Callable[[], object]:
    """Per-snapshot Python loop over 4×4 matrices, as in the d=4 fits."""
    rng = np.random.default_rng(0)
    ads = (rng.random((500, 4, 4)) < 0.5).astype(float)
    a = rng.random((4, 4))
    x = rng.random((4, 500))

    def run():
        z = np.zeros((4, 500))
        for _ in range(12):
            for k in range(500):
                g = ads[k].T.copy()
                np.fill_diagonal(g, 0.0)
                z[:, k] = (a * g) @ x[:, k]
        return z

    return run


def gram_solves() -> Callable[[], object]:
    """eigvalsh, solve and inv on a 300-column Gram matrix, as in least squares."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((500, 300))
    gram = y.T @ y
    b = rng.standard_normal(300)

    def run():
        for _ in range(8):
            np.linalg.eigvalsh(gram)
            w = np.linalg.solve(gram, b)
            np.linalg.inv(gram)
        return w

    return run


def batched_steps() -> Callable[[], object]:
    """Batched network steps and modulated products over (500, 33, 33) stacks."""
    rng = np.random.default_rng(0)
    u = rng.random((500, 33, 33))
    start = (rng.random((500, 33, 33)) < 0.15).astype(float)
    x = rng.standard_normal((500, 33))
    coef = rng.random((33, 33))

    def run():
        s = start
        for _ in range(10):
            s = (u < np.where(s == 1.0, 0.9, 0.015)).astype(float)
            at = s.transpose(0, 2, 1)
            sums = at.sum(axis=2, keepdims=True)
            with np.errstate(invalid="ignore", divide="ignore"):
                mods = np.where(sums != 0, at / np.where(sums != 0, sums, 1.0), 0.0)
            out = np.einsum("rij,rj->ri", coef[None] * mods, x)
        return out

    return run
