"""Fuzzy c-means over 2-D points, hard-assigned by maximum membership."""

from __future__ import annotations

import numpy as np


def fuzzy_c_means(points: np.ndarray, k: int, rng: np.random.Generator,
                  fuzziness: float = 2.0, tol: float = 1e-5,
                  max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Cluster `points` (n, 2) into `k` groups.

    Centers start at k distinct points drawn from the data. Returns
    (labels, centers) with labels[i] = argmax membership of point i.
    Requires k <= n.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= number of points")
    if k == 1:
        return np.zeros(n, dtype=np.int64), points.mean(axis=0, keepdims=True)

    centers = points[rng.choice(n, size=k, replace=False)].copy()
    # u_ij = d_ij^-p / sum_l d_il^-p with p = 2/(m-1): O(nk) per iteration,
    # and on squared distances it is d2 ** (-1/(m-1)), with no sqrt.
    power = -1.0 / (fuzziness - 1.0)
    px, py = points[:, 0, None], points[:, 1, None]
    membership = None
    # on a center d2 is 0 and d2 ** power divides by zero; those rows are
    # overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            dx = px - centers[:, 0]
            dy = py - centers[:, 1]
            d2 = dx * dx + dy * dy
            zero_rows = d2 < 1e-24  # exactly sqrt(d2) < 1e-12
            weight = d2 ** power
            new_membership = weight / weight.sum(axis=1, keepdims=True)
            # points sitting exactly on a center belong to it outright
            on_center = zero_rows.any(axis=1)
            if on_center.any():
                new_membership[on_center] = 0.0
                new_membership[zero_rows] = 1.0
                rowsum = new_membership[on_center].sum(axis=1, keepdims=True)
                new_membership[on_center] /= rowsum
            if membership is not None and np.max(np.abs(new_membership - membership)) < tol:
                membership = new_membership
                break
            membership = new_membership
            um = membership ** fuzziness
            centers = (um.T @ points) / um.sum(axis=0)[:, None]
    labels = np.argmax(membership, axis=1).astype(np.int64)
    return labels, centers
