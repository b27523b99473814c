"""Fuzzy c-means over 2-D points, hard-assigned by maximum membership."""

from __future__ import annotations

import numpy as np

#: Iteration stops once no membership moves by this much or more.
TOL = 1e-5
#: Most iterations of one call.
MAX_ITER = 100


def fuzzy_c_means(points: np.ndarray, k: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cluster `points` (n, 2) into `k` groups with fuzziness m = 2.

    Centers start at k distinct points drawn from the data. Returns
    (labels, centers) with labels[i] = argmax membership of point i.
    Requires k <= n and finite coordinates.

    Exactness: each iteration does the floating-point operations of the plain
    allocating loop (kept as a reference in `tests/test_fcm.py`) in the same
    order, or ones that round to the same bits, so labels and centers are
    equal bit for bit. It writes them into buffers made once per call: the x
    and y differences (`dx`, `dy`: two views of one (2, n, k) buffer, filled
    by one product and one square), the squared distances (built in `dx`), the
    new membership and the previous one (the two swap each iteration), and the
    membership powers (again `dx`, which the distances no longer need by
    then); `dy` holds the differences for the stopping test. Row sums stay a
    contiguous (n, k) reduction along axis 1. The powers d2 ** -1 and u ** 2
    are taken as a reciprocal and a square, which give the bits of numpy's
    `power` for those exponents and cost less.

    The point-to-centre differences are the products [x, -1] @ [1, c] (and
    the same in y). Both terms, x * 1 and -1 * c, are exact, so the sum is
    rounded once, to the float nearest x - c, whatever BLAS computes it,
    with or without a fused multiply-add and in either order; at most the
    sign of a zero differs, and the squaring that follows removes it.

    The centre update divides `um.T @ points` by `um.T @ ones`, with ones of
    shape (n, 2), and copies the quotient into the centre rows of the
    difference products. numpy's `um.sum(axis=0)` adds the n rows one after
    another, and OpenBLAS's SkylakeX (AVX-512) kernels send a (k, n) x
    (n, 2) product to a small-matrix kernel while k * n * 2 <= 10**6
    (n <= 50 000 at k = 10, n <= 1 388 at k = 360); that kernel accumulates
    each output in order with a fused multiply-add, and a product with 1.0
    is exact, so the divisor is the plain column sums bit for bit. Beyond
    that range, or on CPUs where OpenBLAS picks other kernels (its Haswell
    kernels block the sums from n = 257), the last bits of the centres may
    differ. `tests/test_fcm.py` checks the sums over every (n, k) the goldens
    and the benchmark use.

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

    # u_ij = d_ij^-p / sum_l d_il^-p with p = 2/(m-1): O(nk) per iteration,
    # and on squared distances at m = 2 it is 1 / d2, with no sqrt.
    # x - c as [x, -1] @ [1, c]: a[0] = [x, -1] and a[1] = [y, -1] are
    # (n, 2); b[0] and b[1] are (2, k) with rows [1 ... 1] and the centres'
    # x (resp. y), so that `centers` is a (2, k) view into b
    a = np.full((2, n, 2), -1.0)
    a[:, :, 0] = points.T
    b = np.ones((2, 2, k))
    centers = b[:, 1]
    centers[:] = points[rng.choice(n, size=k, replace=False)].T
    ones = np.ones((n, 2))
    dxy, membership, previous = np.empty((2, n, k)), np.empty((n, k)), np.empty((n, k))
    dx, dy = dxy
    rowsum = np.empty((n, 1))
    first = True
    # on a center d2 is 0 and 1 / d2 divides by zero; those rows are
    # overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            np.matmul(a, b, out=dxy)
            np.multiply(dxy, dxy, out=dxy)
            d2 = np.add(dx, dy, out=dx)
            np.reciprocal(d2, out=membership)
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
                if np.abs(dy, out=dy).max() < TOL:
                    break
            first = False
            um = np.multiply(membership, membership, out=dx)
            centers[:] = ((um.T @ points) / (um.T @ ones)).T
            membership, previous = previous, membership
        else:
            membership = previous
    labels = np.argmax(membership, axis=1).astype(np.int64)
    return labels, centers.T.copy()
