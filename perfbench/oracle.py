"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls momentflow.  Weights, eigenvalues and moments are
recomputed from positions with plain numpy: a norm for the distance,
``exp`` for the weights, ``eigvalsh`` for the spectrum, and power sums of
the eigenvalues for the moments (the program takes traces of matrix
powers instead, so the two routes share no code).
"""

from __future__ import annotations

import numpy as np

# Relative agreement demanded between the program's moments or eigenvalues
# and the reference ones.  Both are double precision; the gap comes from
# the different summation routes and stays many orders below this.
REL_TOL = 1e-8


def weights(positions, decay: float, metric: int) -> np.ndarray:
    """exp(-decay * |x_i - x_j|_metric) with a zero diagonal."""
    pos = np.asarray(positions, dtype=float)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], ord=metric, axis=-1)
    w = np.exp(-decay * dist)
    np.fill_diagonal(w, 0.0)
    return w


def spectrum(positions, decay: float, metric: int) -> np.ndarray:
    """Eigenvalues of the weight matrix, descending."""
    return np.linalg.eigvalsh(weights(positions, decay, metric))[::-1]


def moments(eigs: np.ndarray, order: int) -> np.ndarray:
    """m_k = mean(lambda^k) for k = 1..order."""
    return np.array([np.mean(eigs**k) for k in range(1, order + 1)])


def close(got, want, scale) -> bool:
    """Elementwise |got - want| <= REL_TOL * (|want| + scale)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= REL_TOL * (np.abs(want) + scale))
    )


def _show(values) -> str:
    return "[" + ", ".join(f"{float(v):.12g}" for v in values) + "]"


def state_problems(positions, decay, metric, got_moments, got_eigs=None) -> list[str]:
    """Disagreements between reported moments/eigenvalues and the reference.

    Also demands m_1 = 0, which holds exactly for a zero-diagonal matrix.
    """
    eigs = spectrum(positions, decay, metric)
    order = len(got_moments)
    want = moments(eigs, order)
    # Moment k is a mean of k-th powers; its rounding scale is that of
    # the largest power term, not of the (possibly cancelling) mean.
    scales = np.array([np.mean(np.abs(eigs) ** k) for k in range(1, order + 1)])
    out = []
    if abs(float(got_moments[0])) > 1e-14:
        out.append(f"m_1 = {got_moments[0]:.3e}, expected 0")
    if not close(got_moments[1:], want[1:], scales[1:]):
        out.append(f"moments {_show(got_moments)} disagree with reference {_show(want)}")
    if got_eigs is not None and not close(got_eigs, eigs, float(np.abs(eigs).max())):
        out.append("eigenvalues disagree with the reference spectrum")
    return out

