"""The automorphism groups acting on the Hermitian curve and the GK tower.

Two groups live here.  M_ell is the subgroup of PGU(3,q) induced on the
Hermitian curve by the full automorphism group of the tower field; its
elements are triples (a, c, t) of GF(q^2) codes standing for the matrix

    [[a, t*c^q, 0],
     [c, t*a^q, 0],
     [0, 0,     1]]    with  a^(q+1) - c^(q+1) = 1,  t^(q+1) = 1.

The tower group Aut(K_n) has elements (a, c, xi) with xi in mu_(q^n+1)
inside GF(q^(2n)); it projects onto M_ell by xi -> xi^m with
m = (q^n+1)/(q+1), with central kernel C_m.

MlContext(q) carries the curve points, dense lookup tables, the standard
subgroup inventory (center Z, commutator S_ell, elation group, the cyclic
two-point-stabilizer torus and its swap coset), element classification by
fixed-point geometry, orbit counting on curve points, and the tame
quotient genus.  KnContext(q, n) carries the tower group and the
triple decomposition/reconstruction of its subgroups.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from sympy import factorint

from .gf import embed_codes, make_field, roots_of_unity
from .hermitian import hermitian_points, is_isotropic, normalize_point, polar_line

ML_CLOSURE_LIMIT = 2**22


def closure(gens, mul, identity=None, maxsize=ML_CLOSURE_LIMIT):
    """Breadth-first closure of hashable elements under an associative mul."""
    els = set(gens)
    if identity is not None:
        els.add(identity)
    bdy = list(els)
    gens = list(gens)
    while bdy:
        new = []
        for A in gens:
            for B in bdy:
                C = mul(A, B)
                if C not in els:
                    els.add(C)
                    new.append(C)
        if len(els) > maxsize:
            raise ValueError("closure exceeded %d elements" % maxsize)
        bdy = new
    return els


@dataclass(frozen=True)
class ElementType:
    """Fixed-point geometry of a nonidentity element."""

    tag: str  # 'A', 'B1', 'B2', 'C', 'E'
    fix_h: int  # number of fixed rational curve points
    center: tuple | None  # homology/elation center (types A, C)
    frame: tuple  # the fixed points on the chord line


class MlContext:
    """Everything needed to compute inside M_ell for one prime power q."""

    def __init__(self, q):
        self.q = q
        self.pts = hermitian_points(q)
        self.p, self.h = self.pts.p, self.pts.h
        self.F = F = self.pts.F
        self.card = F.card
        self.mu = [e.code for e in roots_of_unity(F, q + 1)]
        self.mu_set = frozenset(self.mu)
        self.eps = self.mu[1] if q + 1 > 1 else 1
        self.identity = (1, 0, 1)
        self.frobq = [F.pow(cde, q) for cde in range(F.card)]
        self.order = (q**3 - q) * (q + 1)
        # S_ell = the determinant-1 part, isomorphic to SL(2,q): (a, c, 1) with
        # a^(q+1) - c^(q+1) = 1, which are exactly the affine curve points (x, y, 1)
        self.s_ell = self.pts.points[self.pts.chord_count:]
        self._np_ready = False
        self._order_cache = {}
        self._structure_ready = False

    # -- element operations -------------------------------------------------

    def compose(self, g1, g2):
        a1, c1, t1 = g1
        a2, c2, t2 = g2
        F = self.F
        u = F.mul(t1, self.frobq[c1])
        v = F.mul(t1, self.frobq[a1])
        return (
            F.add(F.mul(a1, a2), F.mul(u, c2)),
            F.add(F.mul(c1, a2), F.mul(v, c2)),
            F.mul(t1, t2),
        )

    def inverse(self, g):
        a, c, t = g
        F = self.F
        tq = self.frobq[t]  # t^q = t^(-1) on mu_(q+1)
        return (self.frobq[a], F.neg(F.mul(c, tq)), tq)

    def det_rho(self, g):
        return g[2]

    def is_element(self, g):
        a, c, t = g
        F = self.F
        return (
            F.sub(F.pow(a, self.q + 1), F.pow(c, self.q + 1)) == 1
            and F.pow(t, self.q + 1) == 1
        )

    def power(self, g, e):
        if e < 0:
            return self.power(self.inverse(g), -e)
        out = self.identity
        base = g
        while e:
            if e & 1:
                out = self.compose(out, base)
            base = self.compose(base, base)
            e >>= 1
        return out

    def order_of(self, g):
        cached = self._order_cache.get(g)
        if cached:
            return cached
        # element orders divide p * (q^2 - 1), but walk prime-by-prime
        bound = self.p * (self.q**2 - 1)
        n = bound
        for r, e in factorint(bound).items():
            for _ in range(e):
                if self.power(g, n // r) == self.identity:
                    n //= r
                else:
                    break
        self._order_cache[g] = n
        return n

    def apply(self, g, pt):
        a, c, t = g
        x, y, z = pt
        F = self.F
        u = F.mul(t, self.frobq[c])
        v = F.mul(t, self.frobq[a])
        return normalize_point(
            F,
            F.add(F.mul(a, x), F.mul(u, y)),
            F.add(F.mul(c, x), F.mul(v, y)),
            z,
        )

    def cyclic_group(self, g):
        """The powers identity, g, g^2, ... of g, up to its order."""
        out = [self.identity]
        h = g
        while h != self.identity:
            out.append(h)
            h = self.compose(h, g)
        return out

    def iter_elements(self):
        """All of M_ell, lazily, in deterministic order."""
        for a, c, _ in self.s_ell:
            for t in self.mu:
                yield (a, c, t)

    # -- vectorized plumbing --------------------------------------------------

    def _ensure_np(self):
        if self._np_ready:
            return
        F = self.F
        self.MUL = F.np_mul_table()
        self.ADD = F.np_add_table()
        self.INV = F.np_inv_vec()
        self.SQ = F.np_pow_vec(2)
        self.X, self.Y, self.Z, _, _ = self.pts.np_coords()
        self._np_ready = True

    def _image_coords(self, g):
        self._ensure_np()
        a, c, t = g
        F = self.F
        u = F.mul(t, self.frobq[c])
        v = F.mul(t, self.frobq[a])
        MUL, ADD = self.MUL, self.ADD
        Xi = ADD[MUL[a, self.X], MUL[u, self.Y]]
        Yi = ADD[MUL[c, self.X], MUL[v, self.Y]]
        # affine points keep z = 1 and need no rescale; chord points rescale to y = 1
        nch = self.pts.chord_count
        s = self.INV[Yi[:nch]]
        Xi[:nch] = MUL[Xi[:nch], s]
        Yi[:nch] = 1
        return Xi, Yi, self.Z

    def perm_of(self, g):
        """The permutation of curve point indices induced by g."""
        Xi, Yi, Zi = self._image_coords(g)
        return self.pts.lookup(Xi, Yi, Zi)

    def count_fixed_brute(self, g):
        """Literal fixed-point count on the curve (test oracle)."""
        if g == self.identity:
            return len(self.pts)
        Xi, Yi, Zi = self._image_coords(g)
        return int(np.count_nonzero((Xi == self.X) & (Yi == self.Y)))

    def orbit_counts(self, gens):
        """(chord orbits, affine orbits) of the subgroup generated by gens."""
        n = len(self.pts)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for g in gens:
            P = self.perm_of(g)
            for i in range(n):
                ri, rj = find(i), find(int(P[i]))
                if ri != rj:
                    parent[ri] = rj
        nch = self.pts.chord_count
        chord = {find(i) for i in range(nch)}
        affine = {find(i) for i in range(nch, n)}
        return len(chord), len(affine)

    # -- element classification -----------------------------------------------

    def _fixes(self, g, pt):
        return self.apply(g, pt) == pt

    def classify(self, g):
        """Fixed-point geometry tag of a nonidentity element."""
        if g == self.identity:
            raise ValueError("identity has no type")
        a, c, t = g
        F, q = self.F, self.q
        P = (0, 0, 1)
        taq = F.mul(t, self.frobq[a])
        if c == 0:
            if a == taq:
                # scalar on the chord: homology with center P, axis the chord line
                return ElementType("A", q + 1, P, ())
            chord_fixed = [(0, 1, 0), (1, 0, 0)]
        else:
            # fixed chord points (x:1:0) solve -c x^2 + (a - t a^q) x + t c^q = 0
            self._ensure_np()
            negc = F.neg(c)
            b1 = F.sub(a, taq)
            d0 = F.mul(t, self.frobq[c])
            vals = self.ADD[
                self.MUL[negc, self.SQ], self.ADD[self.MUL[b1, np.arange(self.card)], d0]
            ]
            chord_fixed = [(int(x), 1, 0) for x in np.flatnonzero(vals == 0)]
        if len(chord_fixed) == 2:
            q1, q2 = chord_fixed
            for qa, qb in ((q1, q2), (q2, q1)):
                if self._fixes(g, (qa[0], qa[1], 1)):
                    # pointwise-fixed line through qa and P: homology with center qb
                    if is_isotropic(F, q, qb):
                        raise AssertionError("homology with isotropic center")
                    if polar_line(F, q, qb) != self._line_through(qa, P):
                        raise AssertionError("homology axis is not the polar of its center")
                    return ElementType("A", q + 1, qb, (qa,))
            iso1, iso2 = is_isotropic(F, q, q1), is_isotropic(F, q, q2)
            if iso1 and iso2:
                return ElementType("B2", 2, None, (q1, q2))
            if not iso1 and not iso2:
                return ElementType("B1", 0, None, (q1, q2))
            raise AssertionError("mixed isotropy in a fixed frame")
        if len(chord_fixed) == 1:
            (q1,) = chord_fixed
            if not is_isotropic(F, q, q1):
                raise AssertionError("single fixed chord point off the curve")
            if self._fixes(g, (q1[0], q1[1], 1)):
                return ElementType("C", 1, q1, (q1,))
            return ElementType("E", 1, q1, (q1,))
        raise AssertionError("element fixing no chord point")

    def _line_through(self, pt1, pt2):
        # normalized coefficient triple of the line through two points
        F = self.F
        x1, y1, z1 = pt1
        x2, y2, z2 = pt2
        u = F.sub(F.mul(y1, z2), F.mul(z1, y2))
        v = F.sub(F.mul(z1, x2), F.mul(x1, z2))
        w = F.sub(F.mul(x1, y2), F.mul(y1, x2))
        return normalize_point(F, u, v, w)

    def fixed_points_on_h(self, g):
        """Exact count of fixed rational curve points, via the fixed geometry."""
        if g == self.identity:
            return len(self.pts)
        return self.classify(g).fix_h

    def tame_quotient_genus(self, elements):
        """Genus of the quotient curve by a group of order coprime to p."""
        n = len(elements)
        if n % self.p == 0:
            raise ValueError("group order is divisible by p; quotient is not tame")
        gh = self.q * (self.q - 1) // 2
        total = 0
        for g in elements:
            if g != self.identity:
                total += self.fixed_points_on_h(g)
        num = 2 * gh - 2 - total
        quo, rem = divmod(num, 2 * n)
        if rem:
            raise AssertionError("tame genus is not an integer")
        g_bar = 1 + quo
        if g_bar < 0:
            raise AssertionError("negative tame genus")
        return g_bar

    # -- standard subgroup inventory -------------------------------------------

    def _ensure_structure(self):
        if self._structure_ready:
            return
        F, q = self.F, self.q
        self.R0 = self.pts.points[0]
        self.R1 = self.pts.points[1]
        # center Z: homologies fixing the chord pointwise
        self.z_gen = (self.eps, 0, F.mul(self.eps, self.eps))
        self.z_elements = self.cyclic_group(self.z_gen)
        if self.p != 2:
            self.beta = (F.neg(1), 0, F.neg(1))
            self.z1_gen = self.compose(self.z_gen, self.z_gen)
            self.z1_elements = self.cyclic_group(self.z1_gen)
        else:
            self.beta = None
            self.z1_gen = self.z_gen
            self.z1_elements = self.z_elements
        s_ell = self.s_ell
        self.s_ell_set = frozenset(s_ell)
        # stabilizer scans over all of M_ell, vectorized per determinant value
        self._ensure_np()
        arr = np.array(s_ell, dtype=np.int64)
        a_arr, c_arr = arr[:, 0], arr[:, 1]
        MUL, ADD = self.MUL, self.ADD
        FR = np.array(self.frobq, dtype=np.int64)
        aq, cq = FR[a_arr], FR[c_arr]
        x0 = self.R0[0]
        x1 = self.R1[0]
        torus, wcoset, stab0_sl = [], [], []
        for t in self.mu:
            xi = ADD[MUL[a_arr, x0], MUL[t, cq]]
            yi = ADD[MUL[c_arr, x0], MUL[t, aq]]
            fix0 = xi == MUL[x0, yi]
            to1 = xi == MUL[x1, yi]
            xj = ADD[MUL[a_arr, x1], MUL[t, cq]]
            yj = ADD[MUL[c_arr, x1], MUL[t, aq]]
            fix1 = xj == MUL[x1, yj]
            to0 = xj == MUL[x0, yj]
            for i in np.flatnonzero(fix0 & fix1):
                torus.append((int(a_arr[i]), int(c_arr[i]), t))
            for i in np.flatnonzero(to1 & to0):
                wcoset.append((int(a_arr[i]), int(c_arr[i]), t))
            if t == 1:
                for i in np.flatnonzero(fix0):
                    stab0_sl.append((int(a_arr[i]), int(c_arr[i]), 1))
        if len(torus) != q * q - 1 or len(wcoset) != q * q - 1:
            raise AssertionError("unexpected two-point stabilizer sizes")
        if len(stab0_sl) != q * (q - 1):
            raise AssertionError("unexpected Borel size in S_ell")
        self.torus = torus
        self.wcoset = wcoset
        self.torus_gen = next(g for g in torus if self.order_of(g) == q * q - 1)
        # elation group at R0: identity plus the order-p elements of the stabilizer
        e_q = [g for g in stab0_sl if g != self.identity and self.order_of(g) == self.p]
        if len(e_q) != q - 1:
            raise AssertionError("elation group has wrong size")
        self.e_q = [self.identity] + sorted(e_q)
        # generators of S_ell from opposite elation groups; a pair of
        # involutions is only dihedral, so even q > 2 needs the full E_q side
        e_r1 = sorted(self._elations_at(self.R1))
        candidates = []
        if self.p != 2 or self.h == 1:
            candidates.extend([u, v] for u in self.e_q[1:] for v in e_r1)
        candidates.append(self.e_q[1:] + e_r1[:1])
        candidates.append(self.e_q[1:] + e_r1)
        found = None
        for gens in candidates:
            cl = closure(gens, self.compose, self.identity, maxsize=2 * len(s_ell))
            if len(cl) == len(s_ell):
                found = gens
                break
        if not found:
            raise AssertionError("opposite elation groups fail to generate S_ell")
        self.s_ell_gens = found
        self._structure_ready = True

    def _elations_at(self, pt):
        out = []
        for g in self.s_ell:
            if self.apply(g, pt) == pt and self.order_of(g) == self.p:
                out.append(g)
        return out

    def structure(self):
        self._ensure_structure()
        return self

    def random_element(self, rng):
        self._ensure_structure()
        a, c, _ = rng.choice(self.s_ell)
        return (a, c, rng.choice(self.mu))

    def random_subgroup(self, rng, maxsize=ML_CLOSURE_LIMIT):
        g1 = self.random_element(rng)
        g2 = self.random_element(rng)
        return Subgroup.from_closure(self, [g1, g2], maxsize=maxsize)


@lru_cache(maxsize=None)
def ml_context(q):
    return MlContext(q)


class Subgroup:
    """A subgroup of M_ell: generators plus its sorted element list."""

    def __init__(self, ctx, gens, elements, label=""):
        self.ctx = ctx
        self.gens = list(gens)
        self._members = frozenset(elements)
        self.elements = sorted(self._members)
        self.order = len(self.elements)
        self.label = label
        self._orbits = None

    @classmethod
    def from_closure(cls, ctx, gens, maxsize=ML_CLOSURE_LIMIT, label=""):
        els = closure(gens, ctx.compose, ctx.identity, maxsize=maxsize)
        return cls(ctx, gens, els, label=label)

    def __contains__(self, g):
        return g in self._members

    def det_image_order(self):
        """Order of the determinant image inside the cyclic group mu_(q+1)."""
        ctx = self.ctx
        out = 1
        for g in self.gens:
            t = ctx.det_rho(g)
            o = 1 if t == 1 else ctx.F.order_of(t)
            out = out * o // math.gcd(out, o)
        return out

    def orbit_counts(self):
        if self._orbits is None:
            self._orbits = self.ctx.orbit_counts(self.gens)
        return self._orbits

    def n_orbits(self):
        n1, n2 = self.orbit_counts()
        return n1 + n2

    def z_intersection_order(self):
        ctx = self.ctx
        ctx._ensure_structure()
        return sum(1 for z in ctx.z_elements if z in self)

    def z1_intersection_order(self):
        ctx = self.ctx
        ctx._ensure_structure()
        return sum(1 for z in ctx.z1_elements if z in self)

    def tame_genus(self):
        if self.elements is None:
            raise ValueError("tame genus needs materialized elements")
        return self.ctx.tame_quotient_genus(self.elements)


class DetPreimage(Subgroup):
    """A subgroup containing S_ell, kept as the preimage of its determinant image.

    S_ell is the kernel of the determinant character onto mu_(q+1), so a
    subgroup containing it consists of every element whose determinant lies
    in the cyclic group D generated by the determinants of its generators.
    Containment of S_ell is certified by requiring the S_ell generators among
    gens.  The elements are not materialized.
    """

    def __init__(self, ctx, gens, label=""):
        ctx._ensure_structure()
        if not set(ctx.s_ell_gens) <= set(gens):
            raise ValueError("a determinant preimage needs the S_ell generators")
        self.ctx = ctx
        self.gens = list(gens)
        self.elements = None
        self.label = label
        self._orbits = None
        d = self.det_image_order()
        self._dets = frozenset(t for t in ctx.mu if ctx.F.pow(t, d) == 1)
        self.order = len(ctx.s_ell) * d

    def __contains__(self, g):
        return g[2] in self._dets


# -- the tower group Aut(K_n) ---------------------------------------------------


class KnContext:
    """Aut(K_n) for the tower field K_n over GF(q^(2n)), n odd."""

    def __init__(self, q, n):
        if n < 1 or n % 2 == 0:
            raise ValueError("n must be odd and positive")
        self.ml = ml_context(q)
        self.q = q
        self.n = n
        self.p, self.h = self.ml.p, self.ml.h
        self.F2 = self.ml.F
        self.FB = make_field(self.p, 2 * self.h * n)
        self.m = (q**n + 1) // (q + 1)
        self.mu_big = [e.code for e in roots_of_unity(self.FB, q**n + 1)]
        self.mu_m_set = frozenset(
            e.code for e in roots_of_unity(self.FB, self.m)
        )
        # pull xi^m back to the small field along the canonical embedding
        emb = embed_codes(self.F2, self.FB)
        back = {big: small for small, big in enumerate(emb)}
        self.tau_of = {}
        for xi in self.mu_big:
            tau_big = self.FB.pow(xi, self.m)
            self.tau_of[xi] = back[tau_big]
        self.identity = (1, 0, 1)
        self.order = (q**3 - q) * (q**n + 1)

    def compose(self, g1, g2):
        a1, c1, x1 = g1
        a2, c2, x2 = g2
        F = self.F2
        t1 = self.tau_of[x1]
        u = F.mul(t1, self.ml.frobq[c1])
        v = F.mul(t1, self.ml.frobq[a1])
        return (
            F.add(F.mul(a1, a2), F.mul(u, c2)),
            F.add(F.mul(c1, a2), F.mul(v, c2)),
            self.FB.mul(x1, x2),
        )

    def inverse(self, g):
        a, c, x = g
        F = self.F2
        xin = self.FB.inv(x)
        tin = self.tau_of[xin]
        return (self.ml.frobq[a], F.neg(F.mul(c, tin)), xin)

    def pi(self, g):
        """Restriction to the Hermitian subfield: an M_ell element."""
        a, c, x = g
        return (a, c, self.tau_of[x])

    def rho(self, g):
        """The top-right diagonal entry: the mu_(q^n+1) character."""
        return g[2]

    def iter_elements(self):
        for a, c, _ in self.ml.s_ell:
            for x in self.mu_big:
                yield (a, c, x)

    def c_m_elements(self):
        """The central kernel of pi: (1, 0, xi) with xi^m = 1."""
        return [(1, 0, x) for x in sorted(self.mu_m_set)]


@lru_cache(maxsize=None)
def kn_context(q, n):
    return KnContext(q, n)


@dataclass(frozen=True)
class TripleSpec:
    """Invariants (L0, L1, bar L) of a tower-group subgroup."""

    q: int
    n: int
    r: int  # |L0|, the order of the character image
    s: int  # |L0^m|, the number of cosets needed
    l0: frozenset  # character image inside mu_(q^n+1)
    l1: frozenset  # the subgroup meeting S_ell x C_m
    bar_l: frozenset  # image in M_ell


def _check_triple_identities(kn, l0, l1, bar_l):
    l0m = {kn.FB.pow(x, kn.m) for x in l0}
    tau_back = {kn.tau_of[x] for x in l0}
    bar_dets = {g[2] for g in bar_l}
    if tau_back != bar_dets:
        raise AssertionError("determinant image of bar L differs from L0^m")
    pi_l1 = {kn.pi(g) for g in l1}
    bar_in_s = {g for g in bar_l if g[2] == 1}
    if pi_l1 != bar_in_s:
        raise AssertionError("pi(L1) is not bar L meet S_ell")
    rho_l1 = {g[2] for g in l1}
    if rho_l1 != (set(l0) & kn.mu_m_set):
        raise AssertionError("rho(L1) is not L0 meet mu_m")
    return len(l0m)


def triple_of(kn, elements):
    """Decompose a subgroup of Aut(K_n) into its defining triple."""
    l0 = frozenset(kn.rho(g) for g in elements)
    l1 = frozenset(g for g in elements if kn.rho(g) in kn.mu_m_set)
    bar_l = frozenset(kn.pi(g) for g in elements)
    s = _check_triple_identities(kn, l0, l1, bar_l)
    r = len(l0)
    if r != s * math.gcd(r, kn.m):
        raise AssertionError("character order violates r = s * gcd(r, m)")
    return TripleSpec(kn.q, kn.n, r, s, l0, l1, bar_l)


def group_from_triple(kn, spec):
    """Rebuild a subgroup of Aut(K_n) from a triple, by coset representatives."""
    l0, l1, bar_l = spec.l0, spec.l1, spec.bar_l
    s = _check_triple_identities(kn, l0, l1, bar_l)
    if s != spec.s or len(l0) != spec.r:
        raise ValueError("triple spec is inconsistent with its own data")
    center_part = {g for g in l1 if (g[0], g[1]) == (1, 0)}
    wanted = {(1, 0, x) for x in (set(l0) & kn.mu_m_set)}
    if center_part != wanted:
        raise ValueError("L1 does not meet the central kernel in L0 meet mu_m")
    # eta: canonical generator of the cyclic group L0
    r = spec.r
    gens = [x for x in sorted(l0) if (x == 1 and r == 1) or kn.FB.order_of(x) == r]
    if not gens:
        raise ValueError("L0 has no generator of order r")
    eta = gens[0]
    reps = [kn.identity]
    target = 1
    for i in range(1, s):
        target = kn.FB.mul(target, eta)
        found = None
        for g in kn.iter_elements():
            if kn.rho(g) == target and kn.pi(g) in bar_l:
                found = g
                break
        if found is None:
            raise AssertionError("no coset representative with the prescribed character")
        reps.append(found)
    out = set()
    for rep in reps:
        for g in l1:
            out.add(kn.compose(rep, g))
    if len(out) != s * len(l1):
        raise AssertionError("coset products collide")
    # certify the reconstruction
    if {kn.pi(g) for g in out} != set(bar_l):
        raise AssertionError("reconstructed group has wrong image in M_ell")
    if {kn.rho(g) for g in out} != set(l0):
        raise AssertionError("reconstructed group has wrong character image")
    if {g for g in out if kn.rho(g) in kn.mu_m_set} != set(l1):
        raise AssertionError("reconstructed group has wrong L1")
    _certify_closed(kn, out)
    return out


def _certify_closed(kn, elements):
    """Check closure under composition: exhaustively when small, sampled when big."""
    els = list(elements)
    eset = set(elements)
    if len(els) <= 256:
        pairs = ((a, b) for a in els for b in els)
    else:
        rng = random.Random(0xC105ED)
        pairs = ((rng.choice(els), rng.choice(els)) for _ in range(512))
    for a, b in pairs:
        if kn.compose(a, b) not in eset:
            raise AssertionError("reconstructed set is not closed under composition")
