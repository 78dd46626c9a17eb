"""Rational points of the Hermitian curve over GF(q^2).

The curve is Y^(q+1) = X^(q+1) - Z^(q+1); it has q^3 + 1 rational points:
q + 1 on the chord Z = 0 and q^3 - q affine ones.  Points are normalized
projective triples of field codes with last nonzero coordinate 1, listed
in a deterministic order (chord points first), so a point's list index is
a stable identity for orbit work.
"""

from __future__ import annotations

from functools import lru_cache

from .formulas import prime_power
from .gf import make_field, np


class HermitianPointSet:
    """The q^3 + 1 curve points, with index lookup and numpy views."""

    def __init__(self, q):
        self.p, self.h = prime_power(q)
        self.q = q
        self.F = make_field(self.p, 2 * self.h)
        F = self.F
        pts = []
        for xc in range(F.card):
            if F.pow(xc, q + 1) == 1:
                pts.append((xc, 1, 0))
        self.chord_count = len(pts)
        fiber = {}
        for yc in range(F.card):
            fiber.setdefault(F.pow(yc, q + 1), []).append(yc)
        card = F.card
        # Index tables, one row per last coordinate z: a point (x, y, z) has
        # index base[z, x] + offset[z, y].  A chord point (x:1:0) is found by
        # x alone; the affine points with first coordinate x follow the order
        # built below, so base[1, x] is the first of them and offset[1, y] is
        # the rank of y in its norm fiber.  A triple is a curve point iff
        # key[z, y] == want[z, x]: y == 1 with x^(q+1) == 1 on the chord,
        # y^(q+1) == x^(q+1) - 1 off it.
        base = np.full((2, card), -1, dtype=np.intp)
        offset = np.zeros((2, card), dtype=np.intp)
        key = np.zeros((2, card), dtype=np.intp)
        want = np.full((2, card), -1, dtype=np.intp)
        key[0] = np.arange(card)
        for i, (xc, _, _) in enumerate(pts):
            base[0, xc] = i
            want[0, xc] = 1
        for v, ys in fiber.items():
            for r, yc in enumerate(ys):
                offset[1, yc] = r
                key[1, yc] = v
        for xc in range(card):
            v = F.sub(F.pow(xc, q + 1), 1)
            base[1, xc] = len(pts)
            want[1, xc] = v
            for yc in fiber.get(v, ()):
                pts.append((xc, yc, 1))
        self.points = pts
        self._tables = (base.ravel(), offset.ravel(), key.ravel(), want.ravel())
        self._np = tuple(np.array(pts, dtype=np.int32).T.copy())

    def __len__(self):
        return len(self.points)

    def np_coords(self):
        """(X, Y, Z) coordinate arrays for vectorized orbit work."""
        return self._np

    def lookup(self, xa, ya, za):
        """Vectorized point index lookup from normalized coordinate arrays."""
        base, offset, key, want = self._tables
        row = za * self.F.card
        xr, yr = row + xa, row + ya
        if not np.array_equal(key[yr], want[xr]):
            raise KeyError("some coordinates are not curve points")
        return base[xr] + offset[yr]


@lru_cache(maxsize=None)
def hermitian_points(q):
    return HermitianPointSet(q)
