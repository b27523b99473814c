import warnings

import numpy as np
import pytest

from eerpms import fuzzy_c_means


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
