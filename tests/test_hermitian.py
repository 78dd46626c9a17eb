"""Hermitian point sets, normalization and index lookup."""

import pytest

from gk2genus.hermitian import hermitian_points
from reference import is_isotropic, normalize_point


def test_point_counts():
    for q in [2, 3, 4, 5, 8, 9]:
        H = hermitian_points(q)
        assert len(H) == q**3 + 1
        assert H.chord_count == q + 1
        assert len(set(H.points)) == len(H.points)
        for pt in H.points:
            assert is_isotropic(H.F, q, pt)


def test_q2_small_counts():
    H = hermitian_points(2)
    assert H.chord_count == 3 and len(H.points) - H.chord_count == 6


def test_normalization():
    H = hermitian_points(4)
    F = H.F
    for pt in H.points[:20]:
        # rescaling any representative returns the same normalized triple
        for s in range(1, F.card):
            scaled = (F.mul(pt[0], s), F.mul(pt[1], s), F.mul(pt[2], s))
            assert normalize_point(F, *scaled) == pt
    with pytest.raises(ValueError):
        normalize_point(F, 0, 0, 0)


def test_lookup_roundtrip():
    import numpy as np

    H = hermitian_points(5)
    X, Y, Z = H.np_coords()
    idx = H.lookup(X, Y, Z)
    assert list(idx) == list(range(len(H)))
    with pytest.raises(KeyError):
        H.lookup(np.array([1]), np.array([0]), np.array([0]))


@pytest.mark.parametrize("q", [2, 4, 5, 9, 25])
def test_lookup_roundtrip_by_table_gathers(q):
    import numpy as np

    H = hermitian_points(q)
    X, Y, Z = H.np_coords()
    assert H.lookup(X, Y, Z).tolist() == list(range(len(H)))
    # a shuffled batch maps back through the same tables
    perm = np.random.default_rng(q).permutation(len(H))
    assert H.lookup(X[perm], Y[perm], Z[perm]).tolist() == perm.tolist()


@pytest.mark.parametrize("q", [2, 4, 5, 9, 25])
def test_lookup_rejects_points_off_the_curve(q):
    import numpy as np

    H = hermitian_points(q)
    F = H.F
    X, Y, Z = H.np_coords()
    # affine pairs (x, y) with x^(q+1) - y^(q+1) != 1
    off_curve = [(1, 1, 1), (0, 0, 1)]
    # chord triples (x, 1, 0) with x^(q+1) != 1
    off_curve += [(x, 1, 0) for x in range(F.card) if F.pow(x, q + 1) != 1][:3]
    for bad in off_curve:
        assert not is_isotropic(F, q, bad)
        with pytest.raises(KeyError):
            H.lookup(np.array([bad[0]]), np.array([bad[1]]), np.array([bad[2]]))
        # one bad triple spoils a batch of curve points
        with pytest.raises(KeyError):
            H.lookup(
                np.append(X, bad[0]), np.append(Y, bad[1]), np.append(Z, bad[2])
            )


def test_bad_q():
    with pytest.raises(ValueError):
        hermitian_points(6)
