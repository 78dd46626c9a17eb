"""The automorphism group M_ell acting on the Hermitian curve.

M_ell is the subgroup of PGU(3,q) induced on the Hermitian curve by the
full automorphism group of the tower field; its elements are triples
(a, c, t) of GF(q^2) codes standing for the matrix

    [[a, t*c^q, 0],
     [c, t*a^q, 0],
     [0, 0,     1]]    with  a^(q+1) - c^(q+1) = 1,  t^(q+1) = 1.

MlContext(q) carries the curve points, dense lookup tables, the chord frame,
the standard subgroup inventory (center Z, commutator S_ell with its standard
SL(2, q) generators, the two-point-stabilizer torus generator and the chord
swap involution), the element type table, orbit counting on curve points, the
element census and the tame quotient genus; the tables, the frame, the
inventory and the type table are complete at construction.  The GF(q^2) product
and sum tables are FieldCtx.flat_tables, flat array("H") tables mul_flat and
add_flat indexed a * card + b, kept as they were written, with no copy:
compose, inverse and classify look up each field product and sum there, with no
FieldCtx call, and MUL and ADD are read-only card x card uint16 numpy views of
the same two buffers for the vectorized point work.  closure builds a subgroup
by Dimino's right cosets; right_products reads, once per element of the
subgroup closed so far, the five table offsets of compose that depend on the
left factor, so each coset product is five flat reads.  The point work,
perm_of, the cycle labels and the orbit hooking, gathers with np.take from 1-D
uint16 views; the index arrays it reuses on every call, the point coordinates
X, Y and Z and the inverse table INV, are intp, built once per q, so numpy does
not convert them per gather.  An element's type is its fixed-point geometry, a
function of the eigenvalues of the chord block B = [[a, t*c^q], [c, t*a^q]] and
of whether B is scalar; it is tabled once per (trace, det, scalar) key, from
the eigenvalue rule in MlContext.classify, and looked up after that.  A census
counts nonidentity elements by type, one classify call each; a Subgroup keeps
its own, and its tame genus and Burnside orbit average come from
formulas.quotient_data.  Orbit counting memoizes each distinct generator's
cycle labels on the context, one read-only 2-byte array per generator, so a
generator shared by many subgroups is mapped to its point permutation once per
q; a count starts from a copy of the first generator's labels and hooks in each
later generator's edges only while they join two different roots.  The chord
frame is a basis change P taking the basis to R0 and R1 and the Hermitian form
to J = [[0, delta], [-delta, 0]]; frame_element conjugates a matrix preserving
J into the chord element it stands for, and the inventory is built that way.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .formulas import element_types, prime_power, quotient_data
from .gf import _NP_TABLE_LIMIT, make_field, np, roots_of_unity
from .hermitian import hermitian_points

ML_CLOSURE_LIMIT = 2**22


def closure(ctx, gens, maxsize=ML_CLOSURE_LIMIT):
    """The finite group generated by gens in ctx, as a set of hashable elements.

    Dimino's algorithm: the group H closed so far grows by whole right
    cosets H*y, so each new element costs one product.  ctx supplies
    identity, compose for the coset representatives, and right_products(E),
    the function y -> [h*y for h in E], which each stage calls once with
    the nonidentity elements of H.  Raises ValueError once the element
    count passes maxsize: exactly when |<gens>| > maxsize.
    """
    els = set()

    def add_coset(times, y):
        els.add(y)
        els.update(times(y))
        if len(els) > maxsize:
            raise ValueError("closure exceeded %d elements" % maxsize)

    identity = ctx.identity
    add_coset(ctx.right_products(()), identity)  # the trivial group
    used = []
    for g in gens:
        if g in els:
            continue
        used.append(g)
        times = ctx.right_products([h for h in els if h != identity])  # 1*y costs no product
        add_coset(times, g)
        # els is a union of cosets of H, so one element outside it starts a
        # new coset; every coset is reached as a representative times the
        # generators added so far
        reps = [g]
        for x in reps:
            for s in used:
                y = ctx.compose(x, s)
                if y not in els:
                    add_coset(times, y)
                    reps.append(y)
    return els


def _cycle_minima(perm):
    """For each index, the smallest index on its cycle of perm, as uint16.

    Pointer doubling: after k rounds m[i] is the minimum over i, perm(i),
    ..., perm^(2^k - 1)(i), so about log2(longest cycle) rounds suffice.
    Once a round changes nothing, every window already covers its cycle.
    The labels are 2 bytes each, which holds every index at the q <= 32 of
    MlContext (at most 32,769 points); perm is an intp array.
    """
    m = np.arange(len(perm), dtype=np.uint16)
    while True:
        lower = np.minimum(m, m.take(perm))
        if np.array_equal(lower, m):
            return m
        m, perm = lower, perm.take(perm)


def _flat_offsets(codes, card):
    """codes * card as intp offsets into a flat card x card table.

    The product is widened by its dtype, not by the scalar: a uint16 array
    times a card that fits in 16 bits stays uint16, and wraps once card >
    256, under numpy 1.x value-based casting for any integer scalar and
    under NEP 50 for a Python int.
    """
    return np.multiply(codes, card, dtype=np.intp)


def _read_only_square(flat, card):
    """A read-only card x card uint16 numpy view of a flat array("H") table."""
    view = np.frombuffer(flat, dtype=np.uint16).reshape(card, card)
    view.flags.writeable = False
    return view


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
        # a q that is no prime power is named so before any size bound
        self.p, self.h = prime_power(q)
        if q * q > _NP_TABLE_LIMIT:
            raise ValueError(
                "q=%d is too large: M_ell needs dense GF(q^2) tables, so q <= %d"
                % (q, math.isqrt(_NP_TABLE_LIMIT))
            )
        self.q = q
        self.F = F = make_field(self.p, 2 * self.h)
        self.card = F.card
        self.mul_flat, self.add_flat = F.flat_tables()
        self.MUL = _read_only_square(self.mul_flat, F.card)
        self.ADD = _read_only_square(self.add_flat, F.card)
        self.pts = hermitian_points(q)
        self.mu = roots_of_unity(F, q + 1)
        self.eps = self.mu[1]
        self.identity = (1, 0, 1)
        self.frobq = [F.pow(cde, q) for cde in range(F.card)]
        self.order = (q**3 - q) * (q + 1)
        # S_ell = the determinant-1 part, isomorphic to SL(2,q): (a, c, 1) with
        # a^(q+1) - c^(q+1) = 1, which are exactly the affine curve points (x, y, 1)
        self.s_ell = self.pts.points[self.pts.chord_count:]
        self.minus_one = F.neg(1)
        self.INV = F.np_pow_vec(-1).astype(np.intp)
        self.X, self.Y, self.Z = self.pts.np_coords()
        self._cycle_heads = {}
        self._build_type_table()
        self._ensure_structure()

    # -- element operations -------------------------------------------------

    def compose(self, g1, g2):
        a1, c1, t1 = g1
        a2, c2, t2 = g2
        n, mul, frobq = self.card, self.mul_flat, self.frobq
        t = t1 * n
        u = mul[t + frobq[c1]] * n  # row of u = t1 c1^q
        v = mul[t + frobq[a1]] * n  # row of v = t1 a1^q
        return (
            self.add_flat[mul[a1 * n + a2] * n + mul[u + c2]],
            self.add_flat[mul[c1 * n + a2] * n + mul[v + c2]],
            mul[t + t2],
        )

    def right_products(self, elements):
        """The function y -> [h*y for h in elements], each product as compose makes it.

        compose's five table offsets that depend on h alone (a, c, the rows
        of t c^q and t a^q, and t) are read once per h here, so a product
        costs five flat reads of mul_flat and two of add_flat.
        """
        n, mul, add, frobq = self.card, self.mul_flat, self.add_flat, self.frobq
        rows = []
        for a, c, t in elements:
            t *= n
            rows.append((a * n, mul[t + frobq[c]] * n, c * n, mul[t + frobq[a]] * n, t))

        def times(y):
            a, c, t = y
            return [
                (add[mul[ra + a] * n + mul[u + c]], add[mul[rc + a] * n + mul[v + c]], mul[rt + t])
                for ra, u, rc, v, rt in rows
            ]

        return times

    def inverse(self, g):
        a, c, t = g
        n, mul = self.card, self.mul_flat
        tq = self.frobq[t]  # t^q = t^(-1) on mu_(q+1)
        return (self.frobq[a], mul[c * n + mul[self.minus_one * n + tq]], tq)

    def is_element(self, g):
        a, c, t = g
        F = self.F
        return (
            F.sub(F.pow(a, self.q + 1), F.pow(c, self.q + 1)) == 1
            and F.pow(t, self.q + 1) == 1
        )

    def power(self, g, e):
        # square-and-multiply from the lowest set bit of e up to its highest
        if e < 0:
            return self.power(self.inverse(g), -e)
        if e == 0:
            return self.identity
        while not e & 1:
            g = self.compose(g, g)
            e >>= 1
        out = g
        while e > 1:
            g = self.compose(g, g)
            e >>= 1
            if e & 1:
                out = self.compose(out, g)
        return out

    def order_of(self, g):
        return len(self.cyclic_group(g))

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
        row = t * self.card
        u = self.mul_flat[row + self.frobq[c]]
        v = self.mul_flat[row + self.frobq[a]]
        # np.take from the flat tables by the intp X, Y and INV: a sum x + y
        # sits at x * card + y, so the card-long rows of a and c are scaled
        # to intp offsets before the point-long gathers
        MUL, mul, add, card = self.MUL, self.MUL.ravel(), self.ADD.ravel(), self.card
        Xi = add.take(_flat_offsets(MUL[a], card).take(self.X) + MUL[u].take(self.Y))
        Yi = add.take(_flat_offsets(MUL[c], card).take(self.X) + MUL[v].take(self.Y))
        # affine points keep z = 1 and need no rescale; chord points rescale to y = 1
        nch = self.pts.chord_count
        s = self.INV.take(Yi[:nch])
        Xi[:nch] = mul.take(_flat_offsets(Xi[:nch], card) + s)
        Yi[:nch] = 1
        return Xi, Yi, self.Z

    def perm_of(self, g):
        """The permutation of curve point indices induced by g."""
        Xi, Yi, Zi = self._image_coords(g)
        return self.pts.lookup(Xi, Yi, Zi)

    def orbit_counts(self, gens):
        """(chord orbits, affine orbits) of the subgroup generated by gens.

        The orbits are the components of the union of the generators' cycle
        partitions, each cycle labelled by its smallest point index.  A copy
        of the first generator's labels starts the forest.  A later
        generator's edges i -- m(i), m(i) the minimum of i's cycle, become
        root pairs; each round keeps the pairs whose roots still differ,
        hooks the larger root under the smaller (Shiloach-Vishkin),
        pointer-jumps to a fixed point and re-reads both ends.  Each distinct
        generator's labels are memoized on the context, read-only at 2 bytes
        a point (q <= 32 gives at most 32,769), so perm_of runs once per
        element per q however many subgroups share it.
        """
        if not gens:
            return self.q + 1, self.q**3 - self.q
        lab = self._heads(gens[0]).astype(np.intp)  # every label is a root: lab[lab] == lab
        for g in gens[1:]:
            a, b = lab, lab.take(self._heads(g))
            while True:
                split = a != b
                a, b = a[split], b[split]
                if not a.size:
                    break
                # every write lowers a root, whichever of several wins
                lab[np.maximum(a, b)] = np.minimum(a, b)
                while True:
                    jumped = lab.take(lab)
                    if np.array_equal(jumped, lab):
                        break
                    lab = jumped
                a, b = lab.take(a), lab.take(b)
        roots = lab == np.arange(len(lab))
        nch = self.pts.chord_count
        return int(np.count_nonzero(roots[:nch])), int(np.count_nonzero(roots[nch:]))

    def _heads(self, g):
        """g's memoized cycle labels: each point's smallest index on its g-cycle."""
        heads = self._cycle_heads.get(g)
        if heads is None:
            heads = _cycle_minima(self.perm_of(g))
            heads.flags.writeable = False
            self._cycle_heads[g] = heads
        return heads

    # -- element classification -----------------------------------------------

    def classify(self, g):
        """Fixed-point geometry tag of a nonidentity element, looked up by (tr B, det B, B scalar).

        A non-scalar chord block B = [[a, t c^q], [c, t a^q]] is cyclic, so (tr B, det B = t)
        fixes its GL(2, q^2) class, which meets GU(2, q) in one class (G. E. Wall, 1963);
        GU(2, q)-conjugates, by diag(X, 1), have one type.  The type is read from the
        eigenvalues lam, mu of B: g fixes P = (0:0:1), of eigenvalue 1, and the eigenvectors
        v, w of B, with H(v, w) = lam mu^q H(v, w) for the Hermitian form H.  So B scalar, or
        roots 1 and t != 1, is a homology (A); a double root has one eigenvector, isotropic
        since its polar is not another, and is an elation (C) if lam = 1, else E; other
        roots in mu_(q+1) have orthogonal, so anisotropic, eigenvectors (B1); roots swapped
        by lam -> lam^(-q) have isotropic ones, two fixed curve points (B2).
        """
        if g == self.identity:
            raise ValueError("identity has no type")
        a, c, t = g
        v = self.mul_flat[t * self.card + self.frobq[a]]
        return self._types[self.add_flat[a * self.card + v], t, c == 0 and a == v]

    def _build_type_table(self):
        """The type of every (tr B, det B, B scalar) key of M_ell; run once, by __init__.

        B is unitary with det B = t, so its eigenvalues are a pair {lam, t/lam}
        in GF(q^2) with lam + t/lam = tr B, either inside mu_(q+1) or swapped
        by lam -> lam^(-q), that is lam^(1-q) = t.  One np.unique per t lists
        the traces of those pairs, a root of each and whether it is double.
        """
        q, F = self.q, self.F
        self.fix_h = {tag: fix for tag, (fix, _) in element_types(q).items()}
        A, B1, B2, C, E = (ElementType(tag, fix) for tag, fix in self.fix_h.items())
        on_mu = F.np_pow_vec(q + 1) == 1  # by code; 0 is in neither root set
        swapped = F.np_pow_vec(1 - q)
        self._types = {}
        for t in self.mu:
            roots = np.flatnonzero(on_mu | (swapped == t))
            traces, first, counts = np.unique(
                self.ADD[roots, self.MUL[t, self.INV[roots]]], return_index=True, return_counts=True
            )
            for tr, lam, n in zip(traces.tolist(), roots[first].tolist(), counts.tolist()):
                if n == 1:  # lam^2 = t and B is not scalar: one fixed chord point
                    kind = C if lam == 1 else E
                elif tr == F.add(1, t):  # eigenvalues 1 and t: a homology
                    kind = A
                else:
                    kind = B1 if on_mu[lam] else B2
                self._types[tr, t, False] = kind
        for a in self.mu[1:]:  # B = a I, a != 1: a homology with center P
            self._types[F.add(a, a), F.mul(a, a), True] = A

    def census(self, elements):
        """The nonidentity elements counted by type tag, with one classify call each.

        formulas.quotient_data turns it into a quotient genus and an orbit count.
        """
        return Counter(self.classify(g).tag for g in elements if g != self.identity)

    def tame_quotient_genus(self, census):
        """Genus of the quotient curve by a group of order coprime to p, from its census."""
        n = census.total() + 1  # the census leaves out the identity
        if n % self.p == 0:
            raise ValueError("group order is divisible by p; quotient is not tame")
        g_bar = quotient_data(self.q, n, census)[0]
        if g_bar.denominator != 1:
            raise AssertionError("tame genus is not an integer")
        if g_bar < 0:
            raise AssertionError("negative tame genus")
        return int(g_bar)

    # -- the chord frame and the standard subgroup inventory ---------------------

    def _ensure_structure(self):
        """Build the chord frame and the subgroup inventory; run once, by __init__.

        The torus generator, the chord swap and S_ell's generators, the
        standard generators of SL(2, q) from sl2_gens(h), are frame images of
        diagonal, antidiagonal and unipotent matrices.
        """
        F, q = self.F, self.q
        self.R0 = self.pts.points[0]
        self.R1 = self.pts.points[1]
        # center Z: homologies fixing the chord pointwise
        self.z_gen = (self.eps, 0, F.mul(self.eps, self.eps))
        if self.p != 2:
            self.beta = (F.neg(1), 0, F.neg(1))
            self.z1_gen = self.compose(self.z_gen, self.z_gen)
        else:
            self.beta = None
            self.z1_gen = self.z_gen
        self.z1_elements = self.cyclic_group(self.z1_gen)
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
        # diag(x, x^-q) fix R0 and R1, and the antidiagonal ones swap them; swap,
        # [[0, delta], [1/delta, 0]], is an involution that inverts every torus
        # element of order dividing q - 1
        self.torus_gen = self.frame_element(((F.gen_code, 0), (0, F.pow(F.gen_code, -q))))
        if self.order_of(self.torus_gen) != q * q - 1:
            raise AssertionError("torus generator has the wrong order")
        self.swap = self.frame_element(((0, delta), (F.inv(delta), 0)))
        self.s_ell_gens = self.sl2_gens(self.h)
        # S_ell acts regularly on the affine points (g sends (1, 0, 1) to g), so
        # a subset of S_ell generates it exactly when it is transitive on them
        if self.orbit_counts(self.s_ell_gens)[1] != 1:
            raise AssertionError("the standard generators fail to generate S_ell")

    def sl2_gens(self, k):
        """Standard generators of SL(2, p^k), as chord elements, for k dividing h.

        The unipotents [[1, omega^i], [0, 1]] for i < k, with omega a
        generator of GF(p^k)*, whose powers 1, ..., omega^(k-1) are a basis
        of GF(p^k) over GF(p), and the Weyl element [[0, 1], [-1, 0]].
        """
        F, q = self.F, self.q
        omega = F.pow(F.gen_code, (q * q - 1) // (self.p**k - 1))
        mats = [((1, F.pow(omega, i)), (0, 1)) for i in range(k)]
        mats.append(((0, 1), (F.neg(1), 0)))
        return [self.frame_element(M) for M in mats]

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


@lru_cache(maxsize=None)
def ml_context(q):
    return MlContext(q)


class Subgroup:
    """A subgroup of M_ell: generators plus its element set."""

    def __init__(self, ctx, gens, elements):
        self.ctx = ctx
        self.gens = list(gens)
        self.elements = elements
        self.order = len(elements)

    @classmethod
    def from_closure(cls, ctx, gens):
        return cls(ctx, gens, closure(ctx, gens))

    def __contains__(self, g):
        return g in self.elements

    def det_image_order(self):
        """Order of the determinant image inside the cyclic group mu_(q+1)."""
        ctx = self.ctx
        out = 1
        for g in self.gens:
            t = g[2]
            o = 1 if t == 1 else ctx.F.order_of(t)
            out = out * o // math.gcd(out, o)
        return out

    def orbit_counts(self):
        return self.ctx.orbit_counts(self.gens)

    def n_orbits(self):
        n1, n2 = self.orbit_counts()
        return n1 + n2

    def z1_intersection_order(self):
        return sum(1 for z in self.ctx.z1_elements if z in self)

    @cached_property
    def census(self):
        """The type tally of the nonidentity elements, classified once per subgroup."""
        if self.elements is None:
            raise ValueError("the census needs materialized elements")
        return self.ctx.census(self.elements)

    def tame_genus(self):
        return self.ctx.tame_quotient_genus(self.census)


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
        d = self.det_image_order()
        self._dets = frozenset(t for t in ctx.mu if ctx.F.pow(t, d) == 1)
        self.order = len(ctx.s_ell) * d

    def __contains__(self, g):
        return g[2] in self._dets

