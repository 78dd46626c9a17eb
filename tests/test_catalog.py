"""Tests for the subgroup family catalog of the chord stabilizer."""

import dataclasses
from collections import Counter

import pytest
from sympy import divisors

from gk2genus import catalog, formulas, mlgroup
from gk2genus.catalog import (
    FamilyInstance,
    RecipeError,
    enumerate_instances,
    instantiate,
    s_of,
)
from gk2genus.mlgroup import DetPreimage, closure, ml_context
from reference import apply, z_intersection_order


def _by_family(q, family):
    return [inst for inst in enumerate_instances(q) if inst.family == family]


def test_enumerate_rejects_unsupported_q():
    for q in (3, 7, 11, 19):
        with pytest.raises(ValueError, match="falls outside"):
            enumerate_instances(q)
    with pytest.raises(ValueError):
        enumerate_instances(6)  # not a prime power


@pytest.mark.parametrize(
    "q", [2, 4, 8, 16, 32, 64, 1024, 4096, 5, 9, 13, 17, 25, 29, 37, 49, 81, 125, 2401]
)
def test_wild_only_enumeration_filters_the_full_catalog(q):
    full = enumerate_instances(q)
    wild = enumerate_instances(q, include_tame=False)
    assert wild == tuple(inst for inst in full if not inst.tame)


@pytest.mark.parametrize("q", [6, 27, 2**21])
def test_wild_only_enumeration_rejects_the_same_q(q):
    with pytest.raises(ValueError) as full:
        enumerate_instances(q)
    with pytest.raises(ValueError) as wild:
        enumerate_instances(q, include_tame=False)
    assert str(wild.value) == str(full.value)


def test_wild_only_enumeration_at_the_largest_q():
    # the full catalog has 1,234,472 instances here; building it is what this avoids
    assert len(enumerate_instances(2**20, include_tame=False)) == 604


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
    assert {(inst.param_dict["f"], inst.param_dict["w"]) for inst in insts} == {
        (1, 1), (1, 5), (2, 1), (2, 5)
    }
    assert sorted(inst.order for inst in insts) == [2, 4, 10, 20]


def test_sl2_subfield_example_odd():
    insts = _by_family(5, "sl2_subfield")
    assert sorted(inst.order for inst in insts) == [120, 360]
    for inst in insts:
        assert inst.param_dict["k"] == 1
        assert inst.param_dict["w"] in (1, 3)


def test_whole_normal_subgroup_at_q13():
    # k = h, w = 1 gives the full determinant-1 part of the chord stabilizer
    insts = [
        inst
        for inst in _by_family(13, "sl2_subfield")
        if inst.param_dict["k"] == 1 and inst.param_dict["w"] == 1
    ]
    assert len(insts) == 1
    assert insts[0].order == 13**3 - 13 == 2184


def test_triangle_example_even():
    insts = _by_family(4, "triangle")
    assert {(inst.param_dict["t"], inst.param_dict["w"]) for inst in insts} == {
        (1, 1), (1, 5), (5, 1), (5, 5)
    }
    for inst in insts:
        assert inst.order == 2 * inst.param_dict["t"] * inst.param_dict["w"]


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
        inst for inst in _by_family(5, "sl2_subfield") if inst.param_dict["w"] == 3
    ]
    assert len(sl25) == 1 and s_of(sl25[0]) == 3
    for inst in _by_family(9, "unitary_pm"):
        assert s_of(inst) == 2 * inst.param_dict["w"], inst.label()


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
        ctx = ml_context(q)
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
                assert z_intersection_order(instantiate(inst)) == w, inst.label()
    for q in (5, 9):
        for inst in enumerate_instances(q):
            w = inst.param_dict.get("w")
            if w is not None:
                assert instantiate(inst).z1_intersection_order() == w, inst.label()


def test_unipotent_stabilizer_fixes_one_chord_point():
    # E_4 x C_5 at q=4 fixes exactly one point on the chord
    ctx = ml_context(4)
    inst = [
        i
        for i in _by_family(4, "elementary_abelian")
        if i.param_dict["f"] == 2 and i.param_dict["w"] == 5
    ][0]
    sub = instantiate(inst)
    assert sub.order == 20
    chord = ctx.pts.points[: 4 + 1]
    fixed = [
        pt for pt in chord if all(apply(ctx, g, pt) == pt for g in sub.elements)
    ]
    assert len(fixed) == 1


def test_central_order3_subgroup_at_q5():
    # Z_1 = C_3 shows up among the diagonal instances; all of its nonidentity
    # elements act with the homology fixed-point pattern
    ctx = ml_context(5)
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
        if inst.param_dict["d"] == 4 and inst.param_dict["w"] == 1
    ][0]
    orders = sorted(ctx5.order_of(g) for g in instantiate(dih).elements)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    # dicyclic with d=2 is the quaternion group: a unique involution
    dic = [
        inst
        for inst in _by_family(5, "dicyclic")
        if inst.param_dict["d"] == 2 and inst.param_dict["w"] == 1
    ][0]
    orders = sorted(ctx5.order_of(g) for g in instantiate(dic).elements)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_triangle_dihedral_quotient_marker():
    # order-2t triangle groups with w=1 are dihedral: t reflections
    ctx = ml_context(4)
    inst = [
        i
        for i in _by_family(4, "triangle")
        if i.param_dict["t"] == 5 and i.param_dict["w"] == 1
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


@pytest.mark.parametrize("n", [6, 10, 14, 26, 30])
def test_a1_contains_matches_the_spanned_pairs(n):
    for d, e, a in catalog._a1_triples(n):
        pairs = {
            ((x * (n // d) + y * a) % n, y * (n // e) % n)
            for x in range(d)
            for y in range(e)
        }
        assert len(pairs) == d * e
        for i in range(n):
            for j in range(n):
                assert catalog._a1_contains(n, d, e, a, i, j) == ((i, j) in pairs)


def test_point_stabilizer_realizability():
    # mu = 8 at q = 9 needs the torus character defined over GF(9), so only
    # the full-height elation block admits it
    pairs = {
        (inst.param_dict["mu"], inst.param_dict["u"])
        for inst in _by_family(9, "point_stabilizer")
    }
    assert (8, 2) in pairs
    assert (8, 1) not in pairs
    assert (4, 1) in pairs and (4, 2) in pairs
    for inst in _by_family(9, "point_stabilizer"):
        assert inst.order == 3 ** inst.param_dict["u"] * inst.param_dict["mu"]


def test_instantiate_bound():
    inst = FamilyInstance(32, "sl2_two", (("w", 1),), 6, 1)
    with pytest.raises(ValueError, match="q <= 25"):
        instantiate(inst)


def test_torus_cyclic_complements_diagonal():
    for q in (5, 9):
        es = {inst.param_dict["e"] for inst in _by_family(q, "torus_cyclic")}
        expect = {
            int(e) for e in divisors(q * q - 1) if (q + 1) % int(e) != 0
        }
        assert es == expect
        # the diagonal family supplies every order dividing q+1, so between
        # the two families each cyclic torus order is represented
        diag_orders = {inst.order for inst in _by_family(q, "diagonal")}
        assert diag_orders >= {int(d) for d in divisors(q + 1)}


def test_instantiate_certifies_the_order(monkeypatch):
    # without its order-3 generator, SL(2,3) shrinks to the quaternion group Q8
    build, form, involutions = catalog._FAMILIES["sl2_three"]
    monkeypatch.setitem(catalog._FAMILIES, "sl2_three",
                        (lambda ctx: build(ctx)[:2], form, involutions))
    inst = [i for i in _by_family(5, "sl2_three") if i.param_dict["w"] == 1][0]
    with pytest.raises(RecipeError, match=r"sl2_three\[q=5,w=1\] built order 8"):
        instantiate(inst)


def test_instantiate_certifies_the_determinant_image():
    inst = [i for i in _by_family(5, "sl2_three") if i.param_dict["w"] == 1][0]
    with pytest.raises(RecipeError, match="determinant image"):
        instantiate(dataclasses.replace(inst, det_rule=2 * inst.det_rule))


def test_instantiate_certifies_the_involution_count(monkeypatch):
    build, form, _ = catalog._FAMILIES["sl2_three"]
    monkeypatch.setitem(catalog._FAMILIES, "sl2_three", (build, form, 2))
    inst = [i for i in _by_family(5, "sl2_three") if i.param_dict["w"] == 1][0]
    with pytest.raises(RecipeError, match="involution"):
        instantiate(inst)


@pytest.mark.parametrize("q", [9, 13, 16])
def test_instantiate_closures_spend_about_one_compose_per_element(q, monkeypatch):
    # coset closure builds each new element with one product, while a
    # breadth-first closure spends about ten per element on these groups
    spent = {"composes": 0, "elements": 0}

    def counted_closure(gens, mul, identity, maxsize=mlgroup.ML_CLOSURE_LIMIT):
        def counted_mul(a, b):
            spent["composes"] += 1
            return mul(a, b)

        els = closure(gens, counted_mul, identity, maxsize=maxsize)
        spent["elements"] += len(els)
        return els

    monkeypatch.setattr(mlgroup, "closure", counted_closure)
    monkeypatch.setattr(catalog, "closure", counted_closure)
    for inst in enumerate_instances(q):
        instantiate(inst)
    assert spent["elements"] > 0
    assert spent["composes"] <= 2 * spent["elements"], spent


INSTANTIATED_Q = (2, 4, 5, 8, 9, 13, 16, 17, 25)


def test_every_enumerated_family_has_a_builder():
    families = {inst.family for q in INSTANTIATED_Q for inst in enumerate_instances(q)}
    assert families == set(catalog._FAMILIES)


def test_closed_forms_cover_the_wild_instances_and_the_torus_cyclics():
    # a sweep of the even q <= 2^10 and the q = 1 (mod 4) prime powers below
    # 3000 found no other instance with a closed form and no wild one without
    try:
        for q in INSTANTIATED_Q + (32, 64, 49, 81, 121, 125):
            for inst in enumerate_instances(q):
                has_form = inst.genus_orbits() is not None
                assert has_form == (not inst.tame or inst.family == "torus_cyclic"), inst.label()
    finally:
        enumerate_instances.cache_clear()


def test_closed_census_equals_the_oracle_census(monkeypatch):
    # every closed form hands formulas.quotient_data its family's census in
    # closed form: it must count the built subgroup's elements type for type
    handed, real = [], formulas.quotient_data

    def recording(q, order, census):
        handed.append((order, Counter(census)))
        return real(q, order, census)

    monkeypatch.setattr(formulas, "quotient_data", recording)
    checked = 0
    for q in INSTANTIATED_Q:
        ctx = ml_context(q)
        for inst in enumerate_instances(q):
            handed.clear()
            if inst.genus_orbits() is None:
                continue
            ((order, closed),) = handed
            sub = instantiate(inst)
            if isinstance(sub, DetPreimage):
                oracle = ctx.census(g for g in ctx.iter_elements() if g in sub)
            else:
                oracle = sub.census
            assert order == sub.order and closed == oracle, inst.label()
            checked += 1
    assert checked == 273


@pytest.mark.parametrize("q", INSTANTIATED_Q)
def test_torus_cyclic_is_the_elation_recipe_without_elations(q):
    ctx, insts = ml_context(q), _by_family(q, "torus_cyclic")
    assert insts or q == 2
    for inst in insts:
        e = inst.param_dict["e"]
        assert instantiate(inst).gens == [ctx.power(ctx.torus_gen, (q * q - 1) // e)]


@pytest.mark.parametrize("q", INSTANTIATED_Q)
def test_full_sl2_and_unitary_families_are_determinant_preimages(q):
    # sl2_gens(h) is the S_ell generator list itself, so these groups keep
    # the determinant preimage without materializing their elements
    h = formulas.prime_power(q)[1]
    insts = [
        inst for inst in enumerate_instances(q)
        if inst.family == "unitary_pm"
        or (inst.family == "sl2_subfield" and inst.param_dict["k"] == h)
    ]
    assert insts or q == 2
    for inst in insts:
        assert isinstance(instantiate(inst), DetPreimage), inst.label()


ELATION_FAMILIES = ("elementary_abelian", "alt4", "elation_semidirect", "point_stabilizer")


@pytest.mark.parametrize("q", INSTANTIATED_Q)
def test_elation_recipe_spends_one_generator_per_dimension(q):
    # an order-p^f elation group from a GF(p)-basis of f unipotents, plus
    # delta when d > 1 and the central generator when w > 1
    insts = [inst for inst in enumerate_instances(q) if inst.family in ELATION_FAMILIES]
    assert insts
    for inst in insts:
        P = inst.param_dict
        if inst.family == "alt4":
            f, d = 2, 3
        elif inst.family == "point_stabilizer":
            f, d = P["u"], P["mu"]
        else:
            f, d = P["f"], P.get("d", 1)
        expected = f + (d > 1) + (P.get("w", 1) > 1)
        assert len(instantiate(inst).gens) == expected, inst.label()
