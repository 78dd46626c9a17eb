"""The automorphism groups acting on the Hermitian curve and the GK tower.

Two groups live here.  M_ell is the subgroup of PGU(3,q) induced on the
Hermitian curve by the full automorphism group of the tower field; its
elements are triples (a, c, t) of GF(q^2) codes standing for the matrix

    [[a, t*c^q, 0],
     [c, t*a^q, 0],
     [0, 0,     1]]    with  a^(q+1) - c^(q+1) = 1,  t^(q+1) = 1.

The tower group Aut(K_n) has elements (a, c, k), where k is the exponent
of xi = zeta^k in mu_(q^n+1) over a fixed generator zeta with zeta^m = eps
and m = (q^n+1)/(q+1).  It projects onto M_ell by xi -> xi^m = eps^k, with
central kernel C_m; no field GF(q^(2n)) is built.

MlContext(q) carries the curve points, dense lookup tables, the chord
frame, the standard subgroup inventory (center Z, commutator S_ell, the
elation groups at the chord points R0 and R1, the cyclic two-point-stabilizer
torus and its swap coset), the element type table, orbit counting on curve
points, and the tame quotient genus; the tables, the frame, the inventory and
the type table are complete at construction.  An element's type is its
fixed-point geometry, read once per (trace, det, scalar) class from the
eigenvectors of the chord block [[a, t*c^q], [c, t*a^q]] and looked up after
that.  The chord frame
is a basis change P taking the basis to R0 and R1 and the Hermitian form to
J = [[0, delta], [-delta, 0]]; frame_element conjugates a matrix preserving J
into the chord element it stands for, and the inventory is built that way.
KnContext(q, n) carries the tower group and the triple
decomposition/reconstruction of its subgroups.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .formulas import m_of
from .gf import _NP_TABLE_LIMIT, roots_of_unity
from .hermitian import hermitian_points, normalize_point

ML_CLOSURE_LIMIT = 2**22


def closure(gens, mul, identity, maxsize=ML_CLOSURE_LIMIT):
    """Breadth-first closure of hashable elements under an associative mul."""
    els = {identity, *gens}
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


def _cycle_minima(perm):
    """For each index, the smallest index on its cycle of perm.

    Pointer doubling: after k rounds m[i] is the minimum over i, perm(i),
    ..., perm^(2^k - 1)(i), so about log2(longest cycle) rounds suffice.
    Once a round changes nothing, every window already covers its cycle.
    """
    m = np.arange(len(perm))
    while True:
        lower = np.minimum(m, m[perm])
        if np.array_equal(lower, m):
            return m
        m, perm = lower, perm[perm]


def mat_mul(F, A, B):
    """Product of two 2x2 matrices of field codes."""
    return tuple(
        tuple(F.add(F.mul(A[i][0], B[0][j]), F.mul(A[i][1], B[1][j])) for j in (0, 1))
        for i in (0, 1)
    )


def mat_det(F, A):
    return F.sub(F.mul(A[0][0], A[1][1]), F.mul(A[0][1], A[1][0]))


@dataclass(frozen=True)
class ElementType:
    """Fixed-point geometry of a nonidentity element."""

    tag: str  # 'A', 'B1', 'B2', 'C', 'E'
    fix_h: int  # number of fixed rational curve points


class MlContext:
    """Everything needed to compute inside M_ell for one prime power q.

    The context is complete at construction: the dense field tables, the
    numpy point coordinates, the element type table and the standard
    subgroup inventory are all built in __init__, so every method can be
    called on a fresh context.
    """

    def __init__(self, q):
        if q * q > _NP_TABLE_LIMIT:
            raise ValueError(
                "q=%d is too large: M_ell needs dense GF(q^2) tables, so q <= %d"
                % (q, math.isqrt(_NP_TABLE_LIMIT))
            )
        self.q = q
        self.pts = hermitian_points(q)
        self.p, self.h = self.pts.p, self.pts.h
        self.F = F = self.pts.F
        self.card = F.card
        self.mu = roots_of_unity(F, q + 1)
        self.mu_set = frozenset(self.mu)
        self.eps = self.mu[1]
        self.identity = (1, 0, 1)
        self.frobq = [F.pow(cde, q) for cde in range(F.card)]
        self.order = (q**3 - q) * (q + 1)
        # S_ell = the determinant-1 part, isomorphic to SL(2,q): (a, c, 1) with
        # a^(q+1) - c^(q+1) = 1, which are exactly the affine curve points (x, y, 1)
        self.s_ell = self.pts.points[self.pts.chord_count:]
        self.MUL = F.np_mul_table()
        self.ADD = F.np_add_table()
        self.INV = F.np_pow_vec(-1)
        self.SQ = F.np_pow_vec(2)
        self.X, self.Y, self.Z = self.pts.np_coords()
        self._build_type_table()
        self._ensure_structure()

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
        return len(self.cyclic_group(g))

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

    def _image_coords(self, g):
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
        """(chord orbits, affine orbits) of the subgroup generated by gens.

        Each generator labels its cycles by their smallest point index; the
        orbits are the connected components of the union of those cycle
        partitions, merged in one generator at a time (so memory stays
        O(points) however many generators there are) by min-label hooking
        and pointer jumping.
        """
        ids = np.arange(len(self.pts))
        lab = ids.copy()  # every label is a root: lab[lab] == lab
        for g in gens:
            # one edge i -- m(i) per point, m(i) the minimum of its g-cycle
            tails, heads = ids, _cycle_minima(self.perm_of(g))
            while tails.size:
                a, b = lab[tails], lab[heads]
                split = a != b
                tails, heads, a, b = tails[split], heads[split], a[split], b[split]
                # hook the larger root of each split edge under the smaller
                # one; every write lowers a root, whichever of several wins
                lab[np.maximum(a, b)] = np.minimum(a, b)
                while True:
                    jumped = lab[lab]
                    if np.array_equal(jumped, lab):
                        break
                    lab = jumped
        roots = lab == ids
        nch = self.pts.chord_count
        return int(np.count_nonzero(roots[:nch])), int(np.count_nonzero(roots[nch:]))

    # -- element classification -----------------------------------------------

    def classify(self, g):
        """Fixed-point geometry tag of a nonidentity element, looked up by (tr B, det B, B scalar).

        A non-scalar chord block B = [[a, t c^q], [c, t a^q]] is cyclic, so (tr B, det B = t)
        fixes its GL(2, q^2) class, which meets GU(2, q) in one class (G. E. Wall, 1963);
        GU(2, q)-conjugates, by diag(X, 1), have one type.
        """
        if g == self.identity:
            raise ValueError("identity has no type")
        a, c, t = g
        F = self.F
        v = F.mul(t, self.frobq[a])
        return self._types[F.add(a, v), t, c == 0 and a == v]

    def _build_type_table(self):
        """Classify the first element of each (tr, det, scalar) key; run once, by __init__.

        The keys come from numpy gathers over S_ell, one det = t at a time.
        Keys with different t differ, so np.unique's first index per key in
        the column of t is the first element of that key in iter_elements
        order.  Only the identity has the identity's key, and it is skipped.
        """
        s = np.array(self.s_ell, dtype=np.int32)
        a, diagonal = s[:, 0], s[:, 1] == 0  # B is diagonal exactly when c = 0
        aq = np.array(self.frobq, dtype=np.int32)[a]
        self._types = {}
        for t in self.mu:
            v = self.MUL[t, aq]
            # key 2 tr B + [B scalar] within the column of t
            keys, rows = np.unique(self.ADD[a, v] * 2 + (diagonal & (a == v)), return_index=True)
            for k, row in zip(keys.tolist(), rows.tolist()):
                g = (self.s_ell[row][0], self.s_ell[row][1], t)
                if g != self.identity:
                    self._types[k >> 1, t, bool(k & 1)] = self._classify_block(g)

    def _classify_block(self, g):
        """Fixed-point geometry tag of a nonidentity element, read from its chord block.

        g acts as diag(B, 1) with B = [[a, u], [c, v]], u = t c^q, v = t a^q.
        Its fixed chord points are the eigenvectors of B, and the line through
        one of them and P = (0:0:1) is fixed pointwise exactly when that
        eigenvector's eigenvalue is 1, the eigenvalue of P.
        """
        a, c, t = g
        F, q, frobq = self.F, self.q, self.frobq
        v = F.mul(t, frobq[a])
        if c == 0:
            if a == v:
                # scalar on the chord: homology with center P, axis the chord line
                return ElementType("A", q + 1)
            # (eigenvector (x, y) of B, its eigenvalue)
            fixed = [((0, 1), v), ((1, 0), a)]
        else:
            # fixed chord points (x:1:0) solve -c x^2 + (a - v) x + u = 0
            u = F.mul(t, frobq[c])
            vals = self.ADD[
                self.MUL[F.neg(c), self.SQ],
                self.ADD[self.MUL[F.sub(a, v), np.arange(self.card)], u],
            ]
            # the eigenvalue of (x:1:0) is the second entry c x + v of B (x, 1)
            fixed = [((x, 1), F.add(F.mul(c, x), v)) for x in np.flatnonzero(vals == 0).tolist()]

        def form(p1, p2):
            # the Hermitian form x1 x2^q - y1 y2^q on chord points
            return F.sub(F.mul(p1[0], frobq[p2[0]]), F.mul(p1[1], frobq[p2[1]]))

        if len(fixed) == 2:
            for (pa, lam), (pb, _) in (fixed, fixed[::-1]):
                if lam == 1:
                    # pointwise-fixed line through pa and P: homology with center pb.
                    # P lies on the polar of every chord point, so that line is the
                    # polar of pb exactly when pa is orthogonal to pb
                    if form(pb, pb) == 0:
                        raise AssertionError("homology with isotropic center")
                    if form(pa, pb) != 0:
                        raise AssertionError("homology axis is not the polar of its center")
                    return ElementType("A", q + 1)
            iso1, iso2 = (form(pt, pt) == 0 for pt, _ in fixed)
            if iso1 and iso2:
                return ElementType("B2", 2)
            if not iso1 and not iso2:
                return ElementType("B1", 0)
            raise AssertionError("mixed isotropy in a fixed frame")
        if len(fixed) == 1:
            ((pt, lam),) = fixed
            if form(pt, pt) != 0:
                raise AssertionError("single fixed chord point off the curve")
            return ElementType("C" if lam == 1 else "E", 1)
        raise AssertionError("element fixing no chord point")

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

    # -- the chord frame and the standard subgroup inventory ---------------------

    def _ensure_structure(self):
        """Build the chord frame and the subgroup inventory; run once, by __init__."""
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
        self.s_ell_set = frozenset(self.s_ell)
        # the frame P sends the basis to R0 = (x0 : 1 : 0) and a multiple of
        # R1 = (x1 : 1 : 0), scaled so that the Hermitian form becomes
        # J = [[0, delta], [-delta, 0]] with delta^(q-1) = -1
        if self.R0[1:] != (1, 0) or self.R1[1:] != (1, 0):
            raise AssertionError("chord points are not in (x : 1 : 0) form")
        x0, x1 = self.R0[0], self.R1[0]
        delta = 1 if self.p == 2 else F.pow(F.gen_code, (q + 1) // 2)
        c = F.div(delta, F.pow(F.sub(F.mul(x0, self.frobq[x1]), 1), q))
        P = ((x0, F.mul(c, x1)), (1, c))
        gram = tuple(
            tuple(
                F.sub(F.mul(self.frobq[P[0][i]], P[0][j]), F.mul(self.frobq[P[1][i]], P[1][j]))
                for j in (0, 1)
            )
            for i in (0, 1)
        )
        if gram != ((0, delta), (F.neg(delta), 0)):
            raise AssertionError("chord frame does not respect the Hermitian form")
        di = F.inv(mat_det(F, P))
        self.P = P
        self.P_inv = ((F.mul(di, c), F.neg(F.mul(di, P[0][1]))), (F.neg(di), F.mul(di, x0)))
        # M preserves J exactly when M^(q)T J M = J: the diagonal frame matrices
        # fix R0 and R1, the antidiagonal ones swap them, and the unipotent ones
        # over the q-subfield are the elations fixing R0 or R1
        units = range(1, self.card)
        subfield = [b for b in units if self.frobq[b] == b]

        def diag(lam):
            return self.frame_element(((lam, 0), (0, F.pow(lam, -q))))

        self.torus = [diag(lam) for lam in units]
        self.wcoset = [self.frame_element(((0, al), (F.neg(F.pow(al, -q)), 0))) for al in units]
        self.torus_gen = diag(F.gen_code)
        if self.order_of(self.torus_gen) != q * q - 1:
            raise AssertionError("torus generator has the wrong order")
        e_q = sorted(self.frame_element(((1, b), (0, 1))) for b in subfield)
        e_r1 = sorted(self.frame_element(((1, 0), (b, 1))) for b in subfield)
        self.e_q, self.e_r1 = [self.identity] + e_q, [self.identity] + e_r1
        # generators of S_ell from opposite elation groups; a pair of
        # involutions is only dihedral, so even q > 2 needs the full E_q side
        candidates = []
        if self.p != 2 or self.h == 1:
            candidates.extend([u, v] for u in e_q for v in e_r1)
        candidates.append(e_q + e_r1[:1])
        candidates.append(e_q + e_r1)
        # S_ell acts regularly on the affine points (g sends (1, 0, 1) to g), so
        # a subset of S_ell generates it exactly when it is transitive on them
        found = next((gens for gens in candidates if self.orbit_counts(gens)[1] == 1), None)
        if not found:
            raise AssertionError("opposite elation groups fail to generate S_ell")
        self.s_ell_gens = found

    def frame_element(self, M):
        """The chord element (B00, B10, det M) of B = P M P^-1.

        M is a frame matrix preserving J; B then preserves the Hermitian
        form, so it is the block [[a, t c^q], [c, t a^q]] of a chord element.
        """
        F = self.F
        B = mat_mul(F, mat_mul(F, self.P, M), self.P_inv)
        a, c, t = B[0][0], B[1][0], mat_det(F, M)
        if (
            B[0][1] != F.mul(t, self.frobq[c])
            or B[1][1] != F.mul(t, self.frobq[a])
            or not self.is_element((a, c, t))
        ):
            raise ValueError("frame matrix does not preserve the Hermitian form")
        return (a, c, t)

    def random_element(self, rng):
        a, c, _ = rng.choice(self.s_ell)
        return (a, c, rng.choice(self.mu))

    def random_subgroup(self, rng):
        g1 = self.random_element(rng)
        g2 = self.random_element(rng)
        return Subgroup.from_closure(self, [g1, g2])


@lru_cache(maxsize=None)
def ml_context(q):
    return MlContext(q)


class Subgroup:
    """A subgroup of M_ell: generators plus its sorted element list."""

    def __init__(self, ctx, gens, elements):
        self.ctx = ctx
        self.gens = list(gens)
        self._members = frozenset(elements)
        self.elements = sorted(self._members)
        self.order = len(self.elements)
        self._orbits = None

    @classmethod
    def from_closure(cls, ctx, gens, maxsize=ML_CLOSURE_LIMIT):
        els = closure(gens, ctx.compose, ctx.identity, maxsize=maxsize)
        return cls(ctx, gens, els)

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
        return sum(1 for z in self.ctx.z_elements if z in self)

    def z1_intersection_order(self):
        return sum(1 for z in self.ctx.z1_elements if z in self)

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

    def __init__(self, ctx, gens):
        if not set(ctx.s_ell_gens) <= set(gens):
            raise ValueError("a determinant preimage needs the S_ell generators")
        self.ctx = ctx
        self.gens = list(gens)
        self.elements = None
        self._orbits = None
        d = self.det_image_order()
        self._dets = frozenset(t for t in ctx.mu if ctx.F.pow(t, d) == 1)
        self.order = len(ctx.s_ell) * d

    def __contains__(self, g):
        return g[2] in self._dets


# -- the tower group Aut(K_n) ---------------------------------------------------


class KnContext:
    """Aut(K_n) for the tower field K_n over GF(q^(2n)), n odd.

    An element (a, c, k) stands for xi = zeta^k in mu_N, N = q^n + 1, over a
    fixed generator zeta of mu_N with zeta^m = eps = mu[1].  Then xi^m =
    eps^k, so pi sends k to tau = mu[k mod (q+1)] and C_m = ker(pi) is the
    set of k divisible by q + 1; no field GF(q^(2n)) is built.  The product
    is the M_ell product of the pi-images, with the exponents added mod N.
    """

    def __init__(self, q, n):
        self.m = m_of(q, n)
        self.ml = ml_context(q)
        self.q = q
        self.n = n
        self.N = q**n + 1
        self.identity = (1, 0, 0)
        self.order = (q**3 - q) * self.N

    def compose(self, g1, g2):
        a, c, _ = self.ml.compose(self.pi(g1), self.pi(g2))
        return (a, c, (g1[2] + g2[2]) % self.N)

    def inverse(self, g):
        a, c, _ = self.ml.inverse(self.pi(g))
        return (a, c, -g[2] % self.N)

    def tau(self, k):
        """The determinant xi^m = eps^k of pi at xi = zeta^k; 1 exactly on mu_m."""
        return self.ml.mu[k % (self.q + 1)]

    def pi(self, g):
        """Restriction to the Hermitian subfield: an M_ell element."""
        a, c, k = g
        return (a, c, self.tau(k))

    def rho(self, g):
        """The exponent k of the mu_(q^n+1) character xi = zeta^k."""
        return g[2]

    def iter_elements(self):
        for a, c, _ in self.ml.s_ell:
            for k in range(self.N):
                yield (a, c, k)

    def c_m_elements(self):
        """The central kernel of pi: (1, 0, k) with zeta^(k m) = 1."""
        return [(1, 0, k) for k in range(0, self.N, self.q + 1)]


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
    l0: frozenset  # character image inside mu_(q^n+1), as exponents mod N
    l1: frozenset  # the subgroup meeting S_ell x C_m
    bar_l: frozenset  # image in M_ell


def _check_triple_identities(kn, l0, l1, bar_l):
    l0m = {k * kn.m % kn.N for k in l0}
    tau_back = {kn.tau(k) for k in l0}
    bar_dets = {g[2] for g in bar_l}
    if tau_back != bar_dets:
        raise AssertionError("determinant image of bar L differs from L0^m")
    pi_l1 = {kn.pi(g) for g in l1}
    bar_in_s = {g for g in bar_l if g[2] == 1}
    if pi_l1 != bar_in_s:
        raise AssertionError("pi(L1) is not bar L meet S_ell")
    rho_l1 = {g[2] for g in l1}
    if rho_l1 != {k for k in l0 if kn.tau(k) == 1}:
        raise AssertionError("rho(L1) is not L0 meet mu_m")
    return len(l0m)


def triple_of(kn, elements):
    """Decompose a subgroup of Aut(K_n) into its defining triple."""
    l0 = frozenset(kn.rho(g) for g in elements)
    l1 = frozenset(g for g in elements if kn.tau(kn.rho(g)) == 1)
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
    wanted = {(1, 0, k) for k in l0 if kn.tau(k) == 1}
    if center_part != wanted:
        raise ValueError("L1 does not meet the central kernel in L0 meet mu_m")
    # eta: canonical generator of the cyclic group L0; zeta^k has order N / gcd(k, N)
    r = spec.r
    gens = [k for k in sorted(l0) if kn.N // math.gcd(k, kn.N) == r]
    if not gens:
        raise ValueError("L0 has no generator of order r")
    eta = gens[0]
    reps = [kn.identity]
    for i in range(1, s):
        target = i * eta % kn.N
        tau = kn.tau(target)
        found = next(
            ((a, c, target) for a, c, _ in kn.ml.s_ell if (a, c, tau) in bar_l), None
        )
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
    if {g for g in out if kn.tau(kn.rho(g)) == 1} != set(l1):
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
