"""Rational points and polarity of the Hermitian curve over GF(q^2).

The curve is Y^(q+1) = X^(q+1) - Z^(q+1); it has q^3 + 1 rational points:
q + 1 on the chord Z = 0 and q^3 - q affine ones.  Points are normalized
projective triples of field codes with last nonzero coordinate 1, listed
in a deterministic order (chord points first), so a point's list index is
a stable identity for orbit work.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .formulas import prime_power
from .gf import make_field


def normalize_point(F, x, y, z):
    """Scale a nonzero projective triple of codes so its last nonzero coord is 1."""
    if z:
        s = F.inv(z)
        return (F.mul(x, s), F.mul(y, s), 1)
    if y:
        s = F.inv(y)
        return (F.mul(x, s), 1, 0)
    if x:
        return (1, 0, 0)
    raise ValueError("zero vector is not a projective point")


def is_isotropic(F, q, pt):
    """Whether a normalized point lies on the Hermitian curve."""
    x, y, z = pt
    val = F.pow(x, q + 1)
    val = F.sub(val, F.pow(y, q + 1))
    val = F.sub(val, F.pow(z, q + 1))
    return val == 0


def polar_line(F, q, pt):
    """Line coefficients (u, v, w) of the polar of pt, normalized like a point."""
    x, y, z = pt
    return normalize_point(F, F.pow(x, q), F.neg(F.pow(y, q)), F.neg(F.pow(z, q)))


def pole_of(F, q, line):
    """The point whose polar is the given line (polarity applied backwards)."""
    u, v, w = line
    return normalize_point(F, F.pow(u, q), F.pow(F.neg(v), q), F.pow(F.neg(w), q))


def line_points(F, a, b):
    """All normalized points of the line spanned by two distinct points."""
    out = []
    seen = set()
    for lam in range(F.card):
        pt = normalize_point(
            F,
            F.add(F.mul(lam, a[0]), b[0]),
            F.add(F.mul(lam, a[1]), b[1]),
            F.add(F.mul(lam, a[2]), b[2]),
        )
        if pt not in seen:
            seen.add(pt)
            out.append(pt)
    if a not in seen:
        out.append(a)
    return out


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
        for xc in range(F.card):
            v = F.sub(F.pow(xc, q + 1), 1)
            for yc in fiber.get(v, ()):
                pts.append((xc, yc, 1))
        self.points = pts
        self.index = {pt: i for i, pt in enumerate(pts)}
        card = F.card
        arr = np.array(pts, dtype=np.int64)
        X, Y, Z = arr[:, 0], arr[:, 1], arr[:, 2]
        keys = (X * card + Y) * card + Z
        order = np.argsort(keys, kind="stable")
        self._np = (
            X.astype(np.int32),
            Y.astype(np.int32),
            Z.astype(np.int32),
            keys[order],
            order.astype(np.int64),
        )

    def __len__(self):
        return len(self.points)

    def np_coords(self):
        """(X, Y, Z, sorted_keys, sorted_to_index) arrays for vectorized orbit work."""
        return self._np

    def lookup(self, xa, ya, za):
        """Vectorized point index lookup from normalized coordinate arrays."""
        X, Y, Z, keys, order = self.np_coords()
        card = self.F.card
        wanted = (xa.astype(np.int64) * card + ya) * card + za
        pos = np.searchsorted(keys, wanted)
        if np.any(keys[pos] != wanted):
            raise KeyError("some coordinates are not curve points")
        return order[pos]


@lru_cache(maxsize=None)
def hermitian_points(q):
    return HermitianPointSet(q)
