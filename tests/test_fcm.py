import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eerpms import fcm, fuzzy_c_means


def two_blobs(rng, n_per=5, centers=((100.0, 0.0), (-100.0, 0.0))):
    points = []
    for cx, cy in centers:
        points.extend((cx + rng.normal(0, 3), cy + rng.normal(0, 3))
                      for _ in range(n_per))
    return np.array(points)


def test_single_cluster_is_trivial():
    rng = np.random.default_rng(1)
    points = rng.uniform(-50, 50, size=(20, 2))
    labels, centers = fuzzy_c_means(points, 1, rng)
    assert (labels == 0).all()
    assert centers[0] == pytest.approx(points.mean(axis=0))


def test_recovers_separated_groups():
    rng = np.random.default_rng(7)
    points = two_blobs(rng)
    labels, centers = fuzzy_c_means(points, 2, rng)
    first, second = labels[:5], labels[5:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]
    # centers land on the blob centroids
    got = sorted(float(c[0]) for c in centers)
    assert got[0] == pytest.approx(-100.0, abs=5.0)
    assert got[1] == pytest.approx(100.0, abs=5.0)


def test_deterministic_given_rng_state():
    points = np.random.default_rng(3).uniform(-100, 100, size=(30, 2))
    la, ca = fuzzy_c_means(points, 4, np.random.default_rng(11))
    lb, cb = fuzzy_c_means(points, 4, np.random.default_rng(11))
    assert (la == lb).all()
    assert ca == pytest.approx(cb)


def test_point_on_center_belongs_to_it():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0], [50.0, 1.0]])
    labels, _ = fuzzy_c_means(points, 2, np.random.default_rng(0))
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_k_bounds_enforced():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        fuzzy_c_means(points, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        fuzzy_c_means(points, 0, np.random.default_rng(0))


@pytest.mark.parametrize("points", [
    np.zeros((5, 3)),
    np.zeros(5),
    np.zeros((5, 2, 1)),
], ids=["three-columns", "one-dimensional", "three-dimensional"])
def test_rejects_points_not_shaped_n_by_2(points):
    with pytest.raises(ValueError, match="shape"):
        fuzzy_c_means(points, 2, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_coordinate(bad):
    points = np.random.default_rng(0).uniform(-50, 50, size=(10, 2))
    points[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        fuzzy_c_means(points, 2, np.random.default_rng(0))


def allocating_fcm(points, k, rng, fuzziness=2.0, tol=1e-5, max_iter=100):
    """The loop of `fuzzy_c_means` with fresh arrays every iteration and an
    on-centre scan in every iteration, kept as a bitwise reference; its
    column sums are the program's BLAS product `um.T @ ones`. Also returns
    the iterations (0-based) in which some point sat on a centre."""
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    power = -1.0 / (fuzziness - 1.0)
    px, py = points[:, 0, None], points[:, 1, None]
    membership = None
    on_center_iterations = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(max_iter):
            dx = px - centers[:, 0]
            dy = py - centers[:, 1]
            d2 = dx * dx + dy * dy
            zero_rows = d2 < 1e-24
            weight = d2 ** power
            new_membership = weight / weight.sum(axis=1, keepdims=True)
            on_center = zero_rows.any(axis=1)
            if on_center.any():
                on_center_iterations.append(iteration)
                new_membership[on_center] = 0.0
                new_membership[zero_rows] = 1.0
                rowsum = new_membership[on_center].sum(axis=1, keepdims=True)
                new_membership[on_center] /= rowsum
            if membership is not None and np.max(np.abs(new_membership - membership)) < tol:
                membership = new_membership
                break
            membership = new_membership
            um = membership ** fuzziness
            centers = (um.T @ points) / (um.T @ np.ones((n, 2)))
    return np.argmax(membership, axis=1).astype(np.int64), centers, on_center_iterations


def ratio_tensor_fcm(points, k, rng, fuzziness=2.0, tol=1e-5, max_iter=100):
    """The (n, k, k) ratio-tensor form of fuzzy c-means, kept as a reference.

    Same seeding, on-centre rule and stopping rule as `fuzzy_c_means`; also
    returns the iterations (0-based) in which some point sat on a centre.
    """
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    exponent = 2.0 / (fuzziness - 1.0)
    membership = None
    on_center_iterations = []
    for iteration in range(max_iter):
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        zero_rows = dist < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (dist[:, :, None] / dist[:, None, :]) ** exponent
            new_membership = 1.0 / np.sum(ratio, axis=2)
        on_center = zero_rows.any(axis=1)
        if on_center.any():
            on_center_iterations.append(iteration)
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
    return np.argmax(membership, axis=1), centers, on_center_iterations


def disk_points(rng, n, k, duplicated, radius=150.0):
    """n points uniform on a disk; duplicated: copies of at most k distinct points."""
    distinct = rng.integers(1, k + 1) if duplicated else n
    r = radius * np.sqrt(rng.random(distinct))
    theta = rng.uniform(0.0, 2.0 * np.pi, distinct)
    base = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return base[rng.integers(0, distinct, n)] if duplicated else base


def test_matches_ratio_tensor_reference():
    """Labels equal and centres within 1e-9 of the ratio-tensor form.

    Fails under OPENBLAS_CORETYPE=Prescott on two duplicated inputs (n=100
    and n=1000, k=10). There coincident seeds give identical membership
    columns, and Prescott's kernel sums output rows 8-9 of a k = 10 product
    `um.T @ x` in another order than rows 0-7, so coincident centres split
    in their last bits. That fixed point is unstable: the split grows about
    four-fold per iteration (4.4e-8 m after 11 at n=100), from bits that
    differ between the two forms. The inputs, not the program, are at fault.
    """
    after_first = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (3, 10, 100, 1000):
            for k in range(2, min(n, 12) + 1):
                seed = n * 100 + k
                points = disk_points(np.random.default_rng(seed), n, k, duplicated=k % 2 == 0)
                labels, centers = fuzzy_c_means(points, k, np.random.default_rng(seed))
                ref_labels, ref_centers, on_center = ratio_tensor_fcm(
                    points, k, np.random.default_rng(seed))
                np.testing.assert_array_equal(labels, ref_labels, err_msg=f"n={n} k={k}")
                np.testing.assert_allclose(centers, ref_centers, rtol=0, atol=1e-9,
                                           err_msg=f"n={n} k={k}")
                after_first += any(i > 0 for i in on_center)
    assert after_first > 0  # the on-centre rule ran past the first iteration


def test_matches_allocating_loop_bitwise():
    on_center_late = []

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 1000), k=st.integers(2, 40), duplicated=st.booleans(),
           seed=st.integers(0, 2**31), max_iter=st.sampled_from([1, 2, 100]),
           tol=st.sampled_from([1e-5, 0.0]))
    # copies of 3 distinct points, where points still sit on centres after
    # the first update
    @example(n=1000, k=3, duplicated=True, seed=100_001, max_iter=100, tol=1e-5)
    # the CRPFCM call at N = 1000
    @example(n=1000, k=10, duplicated=False, seed=1, max_iter=100, tol=1e-5)
    def check(n, k, duplicated, seed, max_iter, tol):
        k = min(k, n)
        points = disk_points(np.random.default_rng(seed), n, k, duplicated)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(fcm, "TOL", tol), mock.patch.object(fcm, "MAX_ITER", max_iter):
                labels, centers = fuzzy_c_means(points, k, np.random.default_rng(seed))
            ref_labels, ref_centers, on_center = allocating_fcm(
                points, k, np.random.default_rng(seed), tol=tol, max_iter=max_iter)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(centers, ref_centers)
        on_center_late.append(any(i > 0 for i in on_center))

    check()
    assert any(on_center_late)  # the on-centre repair ran past the first iteration


def differs_from_allocating_loop(n, k, duplicated, seed):
    """Whether `fuzzy_c_means` and `allocating_fcm` differ in any bit of
    labels or centres on `disk_points(n, k, duplicated)`."""
    points = disk_points(np.random.default_rng(seed), n, k, duplicated)
    labels, centers = fuzzy_c_means(points, k, np.random.default_rng(seed))
    ref_labels, ref_centers, _ = allocating_fcm(points, k, np.random.default_rng(seed))
    return not (np.array_equal(labels, ref_labels) and np.array_equal(centers, ref_centers))


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64")
    or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", ""),
    reason="OPENBLAS_CORETYPE needs OpenBLAS on x86-64")
def test_matches_allocating_loop_bitwise_on_prescott_kernels():
    """The bitwise contract on the kernels any x86-64 CPU runs, whatever
    this CPU picks: a child process with OPENBLAS_CORETYPE=Prescott (read
    when OpenBLAS loads) checks the N=1000, k=10 CRPFCM call and the
    duplicated n=100, k=10 case, whose identical membership columns
    Prescott's kernels sum in two orders."""
    cases = [(1000, 10, False, 1), (100, 10, True, 100 * 100 + 10)]
    script = f"import test_fcm; print([c for c in {cases} if test_fcm.differs_from_allocating_loop(*c)])"
    paths = [str(Path(fcm.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(paths)}
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]", f"(n, k, duplicated, seed) that differ: {child.stdout}"


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(finite, min_size=1, max_size=40), c=st.lists(finite, min_size=1, max_size=12))
@example(x=[0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308], c=[0.0, -0.0, 5e-324, -1e308, 1e308])
@example(x=[2.2250738585072014e-308, 1.0], c=[2.225073858507201e-308, 1.0 + 2**-52])
def test_blas_differences_match_subtraction(x, c):
    """`fuzzy_c_means` takes x - c as [x, -1] @ [[1 ... 1], [c ...]]: both
    terms of each sum are exact, so after squaring it must equal
    (x - c)**2 bit for bit under any BLAS, signed zeros, subnormals and
    overflow to infinity included."""
    x, c = np.array(x), np.array(c)
    a = np.column_stack((x, np.full(x.size, -1.0)))
    b = np.vstack((np.ones(c.size), c))
    with np.errstate(over="ignore"):
        got = a @ b
        got *= got
        want = (x[:, None] - c) ** 2
    assert np.array_equal(got, want)
