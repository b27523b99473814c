"""Fuzzy c-means over 2-D points, hard-assigned by maximum membership."""

from __future__ import annotations

import numpy as np


def fuzzy_c_means(points: np.ndarray, k: int, rng: np.random.Generator,
                  fuzziness: float = 2.0, tol: float = 1e-5,
                  max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Cluster `points` (n, 2) into `k` groups.

    Centers start at k distinct points drawn from the data. Returns
    (labels, centers) with labels[i] = argmax membership of point i.
    Requires k <= n and finite coordinates.

    Exactness: each iteration does the floating-point operations of the
    plain allocating loop (kept as a reference in `tests/test_fcm.py`) in
    the same order, so labels and centers are equal bit for bit. It writes
    them into (n, k) buffers made once per call: the squared distances
    (built in `dx`), the new membership and the previous one (the two swap
    each iteration), and the membership powers (again `dx`, which the
    distances no longer need by then); `dy` holds the differences for the
    stopping test. Row sums stay a contiguous (n, k) reduction along axis 1.
    At m = 2 the powers d2 ** -1 and u ** 2 are taken as a reciprocal and a
    square, which give the bits of numpy's `power` for those exponents and
    cost less.

    The centre update divides `um.T @ points` by `um.T @ ones`, whose
    columns are both the membership column sums. numpy's `um.sum(axis=0)`
    adds the n rows one after another, and a (k, n) x (n, 2) product goes to
    OpenBLAS's small-matrix kernel while k * n * 2 <= 10**6; that kernel
    accumulates each output in order with a fused multiply-add, and a
    product with 1.0 is exact, so both give the same sums bit for bit.
    Having the numerator's shape, the sums are exact over the same range in
    which the numerator runs on that kernel; beyond it OpenBLAS blocks the
    sums and the last bits of the centres may differ. `tests/test_fcm.py`
    checks the sums over every (n, k) the goldens and the benchmark use.
    The on-centre repair scans for zero distances only when the smallest
    distance is not at least 1e-24, which leaves out exactly the iterations
    in which the scan finds nothing.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must have finite coordinates")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= number of points")
    if k == 1:
        return np.zeros(n, dtype=np.int64), points.mean(axis=0, keepdims=True)
    if max_iter < 1:
        raise ValueError("need max_iter >= 1")

    centers = points[rng.choice(n, size=k, replace=False)].copy()
    # u_ij = d_ij^-p / sum_l d_il^-p with p = 2/(m-1): O(nk) per iteration,
    # and on squared distances it is d2 ** (-1/(m-1)), with no sqrt.
    power = -1.0 / (fuzziness - 1.0)
    px, py = points[:, 0, None], points[:, 1, None]
    dx, dy, membership, previous = (np.empty((n, k)) for _ in range(4))
    rowsum = np.empty((n, 1))
    ones = np.ones((n, 2))
    square = fuzziness == 2.0
    first = True
    # on a center d2 is 0 and d2 ** power divides by zero; those rows are
    # overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            np.subtract(px, centers[:, 0], out=dx)
            np.subtract(py, centers[:, 1], out=dy)
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            d2 = np.add(dx, dy, out=dx)
            if square:
                np.reciprocal(d2, out=membership)
            else:
                np.power(d2, power, out=membership)
            np.add.reduce(membership, axis=1, keepdims=True, out=rowsum)
            np.divide(membership, rowsum, out=membership)
            # points sitting exactly on a center belong to it outright; a NaN
            # minimum also takes the scan
            if not d2.min() >= 1e-24:
                zero_rows = d2 < 1e-24  # exactly sqrt(d2) < 1e-12
                on_center = zero_rows.any(axis=1)
                if on_center.any():
                    membership[on_center] = 0.0
                    membership[zero_rows] = 1.0
                    on_sum = membership[on_center].sum(axis=1, keepdims=True)
                    membership[on_center] /= on_sum
            if not first:
                np.subtract(membership, previous, out=dy)
                if np.abs(dy, out=dy).max() < tol:
                    break
            first = False
            if square:
                um = np.multiply(membership, membership, out=dx)
            else:
                um = np.power(membership, fuzziness, out=dx)
            centers = (um.T @ points) / (um.T @ ones)
            membership, previous = previous, membership
        else:
            membership = previous
    labels = np.argmax(membership, axis=1).astype(np.int64)
    return labels, centers
