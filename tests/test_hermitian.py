"""Hermitian point sets, polarity, chord/tangent intersection counts."""

import pytest

from gk2genus.hermitian import (
    hermitian_points,
    is_isotropic,
    line_points,
    normalize_point,
    polar_line,
    pole_of,
)


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


def test_polarity_involution():
    for q in [2, 3, 4, 5]:
        H = hermitian_points(q)
        F = H.F
        seen = set()
        for xc in range(F.card):
            for yc in range(F.card):
                for zc in (0, 1):
                    if xc == yc == zc == 0:
                        continue
                    pt = normalize_point(F, xc, yc, zc)
                    if pt in seen:
                        continue
                    seen.add(pt)
                    assert pole_of(F, q, polar_line(F, q, pt)) == pt


def test_polar_of_pole_is_chord_line():
    H = hermitian_points(4)
    assert polar_line(H.F, 4, (0, 0, 1)) == (0, 0, 1)  # the line Z = 0


def test_tangent_and_chord_counts():
    for q in [2, 4, 5]:
        H = hermitian_points(q)
        F = H.F
        # tangent at a curve point meets the curve exactly once
        pt = H.points[0]
        tangent = polar_line(F, q, pt)
        a, b = _two_points_of_line(F, tangent)
        on_curve = [r for r in line_points(F, a, b) if is_isotropic(F, q, r)]
        assert on_curve == [pt]
        # polar of an off-curve point is a chord with q + 1 curve points
        off = (1, 0, 0)
        assert not is_isotropic(F, q, off)
        chord = polar_line(F, q, off)
        a, b = _two_points_of_line(F, chord)
        on_curve = [r for r in line_points(F, a, b) if is_isotropic(F, q, r)]
        assert len(on_curve) == q + 1


def _two_points_of_line(F, line):
    u, v, w = line
    found = []
    for xc in range(F.card):
        for yc in range(F.card):
            for zc in (0, 1):
                if xc == yc == zc == 0:
                    continue
                s = F.add(F.add(F.mul(u, xc), F.mul(v, yc)), F.mul(w, zc))
                if s == 0:
                    pt = normalize_point(F, xc, yc, zc)
                    if pt not in found:
                        found.append(pt)
                        if len(found) == 2:
                            return found
    raise AssertionError("line with fewer than two points")


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
