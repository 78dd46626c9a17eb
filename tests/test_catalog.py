"""Tests for the subgroup family catalog of the chord stabilizer."""

import pytest
from sympy import divisors

from gk2genus import formulas
from gk2genus.catalog import (
    FamilyInstance,
    enumerate_instances,
    instantiate,
    s_of,
)
from gk2genus.mlgroup import DetPreimage, closure, ml_context


def _by_family(q, family):
    return [inst for inst in enumerate_instances(q) if inst.family == family]


def test_enumerate_rejects_unsupported_q():
    for q in (3, 7, 11, 19):
        with pytest.raises(ValueError, match="falls outside"):
            enumerate_instances(q)
    with pytest.raises(ValueError):
        enumerate_instances(6)  # not a prime power


def test_enumerate_unique_and_consistent():
    for q in (2, 4, 5, 8, 9, 13):
        instances = enumerate_instances(q)
        keys = {(inst.family, inst.params) for inst in instances}
        assert len(keys) == len(instances)
        p, _ = formulas.prime_power(q)
        for inst in instances:
            assert inst.q == q
            assert inst.order > 0
            assert inst.tame == (inst.order % p != 0)


def test_elementary_abelian_example_even():
    insts = _by_family(4, "elementary_abelian")
    assert {(inst.param("f"), inst.param("w")) for inst in insts} == {
        (1, 1), (1, 5), (2, 1), (2, 5)
    }
    assert sorted(inst.order for inst in insts) == [2, 4, 10, 20]


def test_sl2_subfield_example_odd():
    insts = _by_family(5, "sl2_subfield")
    assert sorted(inst.order for inst in insts) == [120, 360]
    for inst in insts:
        assert inst.param("k") == 1
        assert inst.param("w") in (1, 3)


def test_whole_normal_subgroup_at_q13():
    # k = h, w = 1 gives the full determinant-1 part of the chord stabilizer
    insts = [
        inst
        for inst in _by_family(13, "sl2_subfield")
        if inst.param("k") == 1 and inst.param("w") == 1
    ]
    assert len(insts) == 1
    assert insts[0].order == 13**3 - 13 == 2184


def test_triangle_example_even():
    insts = _by_family(4, "triangle")
    assert {(inst.param("t"), inst.param("w")) for inst in insts} == {
        (1, 1), (1, 5), (5, 1), (5, 5)
    }
    for inst in insts:
        assert inst.order == 2 * inst.param("t") * inst.param("w")


def test_orders_match_instantiation():
    for q in (4, 5, 8, 9):
        for inst in enumerate_instances(q):
            sub = instantiate(inst)
            assert sub.order == inst.order, inst.label()


def test_det_image_examples():
    for inst in enumerate_instances(4):
        if inst.family != "triangle" and inst.param_dict.get("w") == 5:
            assert s_of(inst) == 5, inst.label()
    sl25 = [
        inst for inst in _by_family(5, "sl2_subfield") if inst.param("w") == 3
    ]
    assert len(sl25) == 1 and s_of(sl25[0]) == 3
    for inst in _by_family(9, "unitary_pm"):
        assert s_of(inst) == 2 * inst.param("w"), inst.label()


def test_det_image_matches_oracle_everywhere():
    for q in (4, 5, 8, 9):
        for inst in enumerate_instances(q):
            s = s_of(inst)
            assert (q + 1) % s == 0
            assert instantiate(inst).det_image_order() == s


def test_s_ell_preimages_match_their_closure():
    # the instances containing S_ell are kept as determinant preimages; each
    # must be exactly the group its generators close to
    checked = 0
    for q in (4, 5, 9):
        ctx = ml_context(q).structure()
        for inst in enumerate_instances(q):
            sub = instantiate(inst)
            if not isinstance(sub, DetPreimage):
                continue
            closed = closure(sub.gens, ctx.compose, ctx.identity)
            assert sub.order == len(closed), inst.label()
            for g in ctx.iter_elements():
                assert (g in sub) == (g in closed), (inst.label(), g)
            checked += 1
    assert checked == 12


def test_tail_clause_center_intersection():
    # every w-parameterized family except the triangle types meets the
    # relevant central subgroup in exactly C_w
    for q in (4, 8):
        for inst in enumerate_instances(q):
            if inst.family == "triangle":
                continue
            w = inst.param_dict.get("w")
            if w is not None:
                assert instantiate(inst).z_intersection_order() == w, inst.label()
    for q in (5, 9):
        for inst in enumerate_instances(q):
            w = inst.param_dict.get("w")
            if w is not None:
                assert instantiate(inst).z1_intersection_order() == w, inst.label()


def test_unipotent_stabilizer_fixes_one_chord_point():
    # E_4 x C_5 at q=4 fixes exactly one point on the chord
    ctx = ml_context(4).structure()
    inst = [
        i
        for i in _by_family(4, "elementary_abelian")
        if i.param("f") == 2 and i.param("w") == 5
    ][0]
    sub = instantiate(inst)
    assert sub.order == 20
    chord = ctx.pts.points[: 4 + 1]
    fixed = [
        pt for pt in chord if all(ctx.apply(g, pt) == pt for g in sub.elements)
    ]
    assert len(fixed) == 1


def test_central_order3_subgroup_at_q5():
    # Z_1 = C_3 shows up among the diagonal instances; all of its nonidentity
    # elements act with the homology fixed-point pattern
    ctx = ml_context(5).structure()
    hits = 0
    for inst in _by_family(5, "diagonal"):
        if inst.order != 3:
            continue
        sub = instantiate(inst)
        if sub.z1_intersection_order() == 3:
            hits += 1
            for g in sub.elements:
                if g == ctx.identity:
                    continue
                assert ctx.classify(g).tag == "A"
                assert ctx.compose(g, ctx.torus_gen) == ctx.compose(
                    ctx.torus_gen, g
                )
    assert hits == 1


def test_dihedral_and_dicyclic_structure():
    ctx5 = ml_context(5)
    # D_4 of order 8: five involutions, two elements of order 4
    dih = [
        inst
        for inst in _by_family(5, "dihedral")
        if inst.param("d") == 4 and inst.param("w") == 1
    ][0]
    orders = sorted(ctx5.order_of(g) for g in instantiate(dih).elements)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    # dicyclic with d=2 is the quaternion group: a unique involution
    dic = [
        inst
        for inst in _by_family(5, "dicyclic")
        if inst.param("d") == 2 and inst.param("w") == 1
    ][0]
    orders = sorted(ctx5.order_of(g) for g in instantiate(dic).elements)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_triangle_dihedral_quotient_marker():
    # order-2t triangle groups with w=1 are dihedral: t reflections
    ctx = ml_context(4)
    inst = [
        i
        for i in _by_family(4, "triangle")
        if i.param("t") == 5 and i.param("w") == 1
    ][0]
    orders = sorted(ctx.order_of(g) for g in instantiate(inst).elements)
    assert orders == [1, 2, 2, 2, 2, 2, 5, 5, 5, 5]


def test_diagonal_instances_cover_all_torus_subgroups():
    # the (d, e, a) triples enumerate the subgroups of C_{q+1} x C_{q+1}
    # exactly once each
    for q in (2, 4, 5):
        n = q + 1
        seen = set()
        for i in range(n):
            for j in range(n):
                sub = {(0, 0)}
                frontier = [(i, j)]
                while frontier:
                    x = frontier.pop()
                    if x in sub and x != (0, 0):
                        continue
                    sub.add(x)
                    nxt = ((x[0] + i) % n, (x[1] + j) % n)
                    if nxt not in sub:
                        frontier.append(nxt)
                seen.add(frozenset(sub))
        # close the cyclic pieces under joins to get every subgroup
        groups = set(seen)
        while True:
            fresh = set()
            for a in groups:
                for b in seen:
                    join = set(a)
                    frontier = list(b)
                    while frontier:
                        x = frontier.pop()
                        if x in join:
                            continue
                        join.add(x)
                        for y in list(join):
                            z = ((x[0] + y[0]) % n, (x[1] + y[1]) % n)
                            if z not in join:
                                frontier.append(z)
                    join = frozenset(join)
                    if join not in groups:
                        fresh.add(join)
            if not fresh:
                break
            groups |= fresh
        diag = _by_family(q, "diagonal")
        assert len(diag) == len(groups)
        assert sorted(inst.order for inst in diag) == sorted(
            len(g) for g in groups
        )


def test_point_stabilizer_realizability():
    # mu = 8 at q = 9 needs the torus character defined over GF(9), so only
    # the full-height elation block admits it
    pairs = {
        (inst.param("mu"), inst.param("u"))
        for inst in _by_family(9, "point_stabilizer")
    }
    assert (8, 2) in pairs
    assert (8, 1) not in pairs
    assert (4, 1) in pairs and (4, 2) in pairs
    for inst in _by_family(9, "point_stabilizer"):
        assert inst.order == 3 ** inst.param("u") * inst.param("mu")


def test_instantiate_bound():
    inst = FamilyInstance(32, "sl2_two", (("w", 1),), 6, False, 1)
    with pytest.raises(ValueError, match="q <= 25"):
        instantiate(inst)


def test_torus_cyclic_complements_diagonal():
    for q in (5, 9):
        es = {inst.param("e") for inst in _by_family(q, "torus_cyclic")}
        expect = {
            int(e) for e in divisors(q * q - 1) if (q + 1) % int(e) != 0
        }
        assert es == expect
        # the diagonal family supplies every order dividing q+1, so between
        # the two families each cyclic torus order is represented
        diag_orders = {inst.order for inst in _by_family(q, "diagonal")}
        assert diag_orders >= {int(d) for d in divisors(q + 1)}
