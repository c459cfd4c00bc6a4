"""Central-difference gradient checker for the hand-derived backward
passes of the sequence models."""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from capseq.numerics import Params


def grad_check(
    loss_fn: Callable[[], float],
    params: Params,
    grads: Mapping[str, np.ndarray],
    eps: float = 1e-5,
    samples_per_block: int = 8,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between ``grads`` and central differences.

    ``loss_fn`` must read the (perturbed in place) ``params``; each block
    is probed at ``samples_per_block`` coordinates (all of them when the
    block is small). Error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for name, g in grads.items():
        p = params[name]
        n_coords = p.size
        if n_coords <= samples_per_block:
            coords = np.arange(n_coords)
        else:
            coords = rng.choice(n_coords, size=samples_per_block, replace=False)
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = loss_fn()
            flat[c] = orig - eps
            f_minus = loss_fn()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = gflat[c]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
