import contextlib
import random
import signal
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from stab.domains import ZZ, BackendMismatch, poly_ring
from stab.matrices import Mat
from stab.modules import (FpModule, Morphism, Ideal, HomSpace, MAX_GENERATORS,
                          loc_tensor,
                          NotWellDefined, SubmoduleError, DomainViolation,
                          sub_equal, sub_intersect, torsion_gens)
from stab.laws import random_module, random_torsion_module
from stab.scan import Layers
from stab.functors import CoherentFunctor, ExponentSet, _carried
from stab.invariants import AssSet, CmcSet
from oracles import (hom_count_oracle, elementary_divisors, decomposition_reference,
                     loc_tensor_reference, torsion_gens_reference, hom_induced_reference,
                     hom_generators, factor_through_reference, invariant_counts, iso_type,
                     tensor_mor, hom_coords)

F2 = poly_ring(2)
F5 = poly_ring(5)

R = FpModule.free(ZZ, 1)
I2 = Ideal(ZZ, 2)


def cyc(*ds):
    out = FpModule.from_invariants(ZZ, 0, list(ds))
    return out


def test_decompose_examples():
    assert iso_type(FpModule.from_relations(ZZ, [[2, 4], [6, 8]])) == (0, [2, 4])
    assert iso_type(FpModule.free(ZZ, 1)) == (1, [])
    assert iso_type(FpModule.from_relations(ZZ, [[2, 0], [0, 3]])) == (0, [6])


def test_dec_isomorphisms_mutually_inverse():
    rng = random.Random(1)
    for _ in range(40):
        cols = rng.randint(0, 3)
        rows = [[rng.randint(-9, 9) for _ in range(cols)]
                for _ in range(rng.randint(1, 3))]
        m = FpModule.from_relations(ZZ, rows)
        dec = FpModule.from_invariants(ZZ, m.rank, m.factors)
        fwd = Morphism(m, dec, m._to_dec)
        back = Morphism(dec, m, m._from_dec)
        assert fwd.compose(back).equals(Morphism.identity(dec))
        assert back.compose(fwd).equals(Morphism.identity(m))


def test_tensor_examples():
    assert iso_type(cyc(2).tensor(cyc(3))) == (0, [])
    m = FpModule.from_relations(ZZ, [[2, 4], [6, 8]])
    assert iso_type(R.tensor(m)) == iso_type(m)
    assert iso_type(cyc(4).tensor(cyc(6))) == (0, [2])


@settings(max_examples=100)
@given(st.lists(st.integers(2, 30), max_size=2), st.integers(0, 1),
       st.lists(st.integers(2, 30), max_size=2), st.integers(0, 1))
def test_tensor_and_sum_match_decomposition_formula(fs, r1, gs, r2):
    m = FpModule.free(ZZ, r1).direct_sum(cyc(*fs))
    n = FpModule.free(ZZ, r2).direct_sum(cyc(*gs))
    s = m.direct_sum(n)
    assert s.rank == m.rank + n.rank
    assert elementary_divisors(ZZ, 0, list(m.factors) + list(n.factors)) == \
        elementary_divisors(ZZ, 0, s.factors)
    t = m.tensor(n)
    expected = [ZZ.gcd(a, b) for a in fs for b in gs]
    expected += [a for a in fs] * r2 + [b for b in gs] * r1
    expected = [d for d in expected if d > 1]
    assert t.rank == r1 * r2
    assert elementary_divisors(ZZ, 0, expected) == \
        elementary_divisors(ZZ, 0, t.factors)


def test_hom_examples():
    assert iso_type(HomSpace(cyc(6), cyc(4)).module) == (0, [2])
    m = FpModule.from_relations(ZZ, [[2, 4], [6, 8]])
    assert iso_type(HomSpace(R, m).module) == iso_type(m)
    assert iso_type(HomSpace(cyc(2), R).module) == (0, [])
    assert iso_type(HomSpace(R.direct_sum(R), R).module) == (2, [])


def test_hom_realize_produces_well_defined_maps():
    h = HomSpace(cyc(6), cyc(4))
    for g in hom_generators(h):
        assert g.source.ambient == 1 and g.target.ambient == 1
    # the generator of Hom(Z/6, Z/4) = Z/2 is multiplication by 2
    gen = h.realize([1])
    assert gen.mat.data[0][0] % 4 in (2,)


def test_hom_coords_inverse_to_realize():
    rng = random.Random(4)
    mods = [cyc(4), cyc(2, 8), R.direct_sum(cyc(6)), R, cyc(9)]
    for _ in range(60):
        m = mods[rng.randrange(len(mods))]
        n = mods[rng.randrange(len(mods))]
        h = HomSpace(m, n)
        coords = [rng.randint(-6, 6) for _ in h.pairs]
        f = h.realize(coords)
        again = h.realize(hom_coords(h, f))
        assert again.equals(f)


def test_hom_realize_rejects_a_wrong_number_of_coordinates():
    # Hom(Z/6 (+) Z/4, Z/4) has two generators: too few coordinates or too
    # many is an error, not a map built from a truncated list.
    h = HomSpace(cyc(6, 4), cyc(4))
    assert len(h.pairs) == 2
    for coords in ([1], [1] * 5, []):
        with pytest.raises(ValueError, match="for 2 generators"):
            h.realize(coords)


def test_hom_count_matches_enumeration_small():
    # Each target with an exponent that kills it.
    cases = [(cyc(6), cyc(4), 4), (cyc(4), cyc(4), 4), (cyc(2, 4), cyc(8), 8),
             (cyc(12), cyc(9), 9), (cyc(2, 2), cyc(2, 4), 4)]
    for m, n, e in cases:
        h = HomSpace(m, n).module
        assert h.rank == 0
        assert invariant_counts(ZZ, h.factors, [])[0] == hom_count_oracle(m, n, e)


def test_hom_induced_examples():
    # Pre- and post-composition read off one product, against the realized
    # reference.
    n = cyc(4)
    hk = HomSpace(cyc(6), n)
    for f in (Morphism.identity(cyc(6)), Morphism.zero_map(cyc(6), cyc(6))):
        assert hk.induced(hk, f=f) == hom_induced_reference(hk, hk, f=f)
    assert Morphism(hk.module, hk.module, hom_induced_reference(
        hk, hk, f=Morphism.identity(cyc(6)))).equals(Morphism.identity(hk.module))
    assert Morphism(hk.module, hk.module, hom_induced_reference(
        hk, hk, f=Morphism.zero_map(cyc(6), cyc(6)))).is_zero()
    # f = *2 on R induces *2 on Hom(R, Z/4) = Z/4
    f = Morphism(R, R, Mat(ZZ, [[2]]))
    hr = HomSpace(R, n)
    assert Morphism(hr.module, hr.module, hr.induced(hr, f=f)).equals(
        Morphism(hr.module, hr.module, Mat.scalar(ZZ, hr.module.ambient, 2)))
    # g = *6 on Z/4 induces *2 on Hom(R, Z/4), read reduced, and zero on
    # Hom(Z/6, Z/4) = Z/2; on Hom(R, Z/4 (+) Z/8) = Z/4 (+) Z/8 the map is g.
    six = Morphism(n, n, Mat.scalar(ZZ, n.ambient, 6))
    assert hr.induced(hr, g=six) == Mat(ZZ, [[2]])
    assert hk.induced(hk, g=six) == Mat(ZZ, [[0]])
    a = cyc(4, 8)
    shear = Morphism(a, a, Mat(ZZ, [[1, 0], [2, 1]]))
    ha = HomSpace(R, a)
    assert ha.induced(ha, g=shear) == shear.mat
    for h, g in ((hr, six), (hk, six), (ha, shear)):
        assert h.induced(h, g=g) == hom_induced_reference(h, h, g=g)


def test_morphism_well_definedness_enforced():
    with pytest.raises(NotWellDefined):
        Morphism(cyc(4), cyc(8), Mat(ZZ, [[1]]))  # 4*1 not 0 mod 8
    Morphism(cyc(4), cyc(8), Mat(ZZ, [[2]]))  # 4*2 = 8 ok


def test_morphism_check_reaches_the_last_relation():
    # Relations (2,0,0), (0,2,0) map into 2Z^3; only (0,0,3) does not.
    ident = Mat.identity(ZZ, 3)
    with pytest.raises(NotWellDefined):
        Morphism(cyc(2, 2, 3), cyc(2, 2, 2), ident)
    Morphism(cyc(2, 2, 3), cyc(2, 2, 3), ident)
    m = cyc(2, 2, 3)
    assert Morphism(m, m, Mat.scalar(ZZ, m.ambient, 6)).is_zero()
    assert not Morphism(m, m, Mat(ZZ, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])).is_zero()


def test_carried_map_rejects_an_image_outside_the_generators():
    # A functor map writes the images over the target's generators, here the
    # first basis vector of Z^2.
    r2 = FpModule.free(ZZ, 2)
    gens = Mat(ZZ, [[1], [0]])
    assert _carried(r2, R, gens, Mat(ZZ, [[3, 5], [0, 0]])).mat == Mat(ZZ, [[3, 5]])
    # The first column is carried; only the last one leaves the span.
    with pytest.raises(SubmoduleError):
        _carried(r2, R, gens, Mat(ZZ, [[3, 0], [0, 1]]))


def test_carried_map_over_an_identity_matrix():
    z4 = cyc(4)
    f = Morphism(cyc(2), z4, Mat(ZZ, [[2]]))
    assert _carried(cyc(2), z4, Mat.identity(ZZ, 1), f.mat).mat == f.mat
    # Z and Z/4 are both spanned by the identity matrix, but only a map into
    # Z/4 is carried from Z/4: the carried map stays checked.
    with pytest.raises(NotWellDefined):
        _carried(z4, R, Mat.identity(ZZ, 1), Mat.identity(ZZ, 1))


def test_kernel_cokernel_image_examples():
    # The kernel and image are submodules, the cokernel a quotient on the
    # target's generators.
    f = Morphism(R, R, Mat(ZZ, [[2]]))
    k, _ = R.submodule(f.mat.preimage(R.relations))
    assert iso_type(k) == (0, [])
    c = R.quotient(f.mat)
    assert iso_type(c) == (0, [2])
    Morphism(R, c, Mat.identity(ZZ, 1))  # the projection, checked

    g = Morphism(cyc(4), cyc(4), Mat.scalar(ZZ, 1, 2))
    k, incl = cyc(4).submodule(g.mat.preimage(cyc(4).relations))
    assert iso_type(k) == (0, [2])
    img, _ = cyc(4).submodule(g.mat)
    assert iso_type(img) == (0, [2])

    z = Morphism.zero_map(R, R)
    c = R.quotient(z.mat)
    assert iso_type(c) == (1, [])


def test_quotient_is_the_inline_construction():
    m = R.direct_sum(cyc(12))
    for D, module, g in ((ZZ, m, 2), (F5, FpModule.from_invariants(F5, 1, [(1, 1)]), (0, 1))):
        assert module.quotient(Mat.zero(D, module.ambient, 0)) is module
        gens = Mat.identity(D, module.ambient).scale(g)
        inline = FpModule(D, module.ambient, module.relations.hstack(gens))
        assert module.quotient(gens).relations == inline.relations
    assert iso_type(m.quotient(Mat(ZZ, [[3], [0]]))) == (0, [3, 12])
    with pytest.raises(ValueError):
        m.quotient(Mat.zero(ZZ, 1, 0))
    with pytest.raises(BackendMismatch):
        m.quotient(Mat.zero(F5, 2, 1))


def test_kernel_image_random_exactness():
    rng = random.Random(8)
    mods = [cyc(4), cyc(2, 8), R, R.direct_sum(cyc(6)), cyc(9, 27)]
    for _ in range(40):
        m = mods[rng.randrange(len(mods))]
        n = mods[rng.randrange(len(mods))]
        h = HomSpace(m, n)
        f = h.realize([rng.randint(-5, 5) for _ in h.pairs])
        k, incl = m.submodule(f.mat.preimage(n.relations))
        assert f.compose(incl).is_zero()
        img, _ = n.submodule(f.mat)
        coker_of_incl = m.quotient(incl.mat)
        assert iso_type(img) == iso_type(coker_of_incl)


def test_subquotient_examples():
    sq = R.subquotient(Mat(ZZ, [[4]]), Mat(ZZ, [[1]]), Mat(ZZ, [[2]]), I2, 3)
    assert iso_type(sq) == (0, [4])
    sq0 = R.subquotient(Mat(ZZ, [[4]]), Mat(ZZ, [[1]]), Mat(ZZ, [[2]]), I2, 0)
    assert iso_type(sq0) == (0, [2])  # (4Z + Z)/2Z
    sq2 = R.subquotient(Mat.zero(ZZ, 1, 0), Mat(ZZ, [[1]]), Mat(ZZ, [[2]]), I2, 5)
    assert iso_type(sq2) == (0, [2])  # 2^5 Z / 2^6 Z


def test_subquotient_w_not_in_v():
    with pytest.raises(SubmoduleError):
        R.subquotient(Mat.zero(ZZ, 1, 0), Mat(ZZ, [[4]]), Mat(ZZ, [[2]]), I2, 1)


def test_power_quotient_examples():
    m = R.direct_sum(cyc(8))
    assert iso_type(m.power_quotient(I2, 5)) == (0, [8, 32])
    assert iso_type(m.power_quotient(Ideal(ZZ, 0), 3)) == iso_type(m)
    assert iso_type(m.power_quotient(I2, 0)) == (0, [])


def test_power_layer_examples():
    assert iso_type(Layers(R, I2).generate(3)) == (0, [2])
    assert iso_type(Layers(R, Ideal(ZZ, 0)).generate(1)) == iso_type(R)
    assert iso_type(Layers(R, Ideal(ZZ, 0)).generate(2)) == (0, [])
    with pytest.raises(ValueError, match="layers need n >= 1"):
        Layers(R, I2).generate(0)


def test_layer_agrees_with_scaled_subquotient():
    rng = random.Random(13)
    for _ in range(25):
        m = FpModule.free(ZZ, rng.randint(0, 1)).direct_sum(
            cyc(*[rng.choice([2, 4, 3, 9, 6]) for _ in range(rng.randint(0, 2))]))
        if m.ambient == 0:
            continue
        g = rng.choice([2, 3, 6])
        n = rng.randint(1, 4)
        ideal = Ideal(ZZ, g)
        direct = Layers(m, ideal).generate(n)
        via_subq = m.subquotient(Mat.zero(ZZ, m.ambient, 0),
                                 Mat.identity(ZZ, m.ambient),
                                 Mat.scalar(ZZ, m.ambient, g), ideal, n - 1)
        assert iso_type(direct) == iso_type(via_subq)


def test_subquotient_full_gens_is_power_quotient():
    m = R.direct_sum(cyc(8))
    ident = Mat.identity(ZZ, m.ambient)
    for n in range(4):
        assert iso_type(m.subquotient(ident, ident, ident, I2, n)) == iso_type(
            m.power_quotient(I2, n))


def _subgroup_order(module, gen_cols):
    """Order of the subgroup generated by columns inside a finite module."""
    domain = module.domain
    seen = set()
    frontier = [tuple([domain.zero] * module.ambient)]
    seen.add(_reduce(module, frontier[0]))
    gens = [tuple(c) for c in gen_cols]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(domain.add(a, b) for a, b in zip(cur, g))
            key = _reduce(module, nxt)
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
    return len(seen)


def _reduce(module, vec):
    # canonical representative of a class in a finite module, by coordinates
    # in the diagonal decomposition
    domain = module.domain
    dec = (module._to_dec @ Mat.from_cols(domain, [vec], module.ambient)).col(0)
    out = []
    for d, x in zip(module.factors, dec):
        out.append(domain.divmod(x, d)[1])
    return tuple(out)


def test_subquotient_counts_match_subgroup_enumeration():
    rng = random.Random(21)
    checked = 0
    while checked < 40:
        t = cyc(*[rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 2))])
        if invariant_counts(ZZ, t.factors, [])[0] > 100:
            continue
        k = t.ambient
        ucols = rng.randint(0, 2)
        u = Mat(ZZ, [[rng.randint(0, 5) for _ in range(ucols)]
                     for _ in range(k)], k, ucols)
        v = Mat.identity(ZZ, k)
        wcols = rng.randint(0, 2)
        w = v @ Mat(ZZ, [[rng.randint(0, 3) for _ in range(wcols)]
                         for _ in range(k)], k, wcols)
        ideal = Ideal(ZZ, rng.choice([2, 3, 6]))
        n = rng.randint(0, 3)
        presented = t.subquotient(u, v, w, ideal, n)
        g_n = ideal.power_gen(n)
        top_gens = u.columns() + [[g_n * x for x in c] for c in v.columns()]
        bot_gens = [[g_n * x for x in c] for c in w.columns()]
        top = _subgroup_order(t, top_gens)
        bot = _subgroup_order(t, bot_gens)
        assert presented.rank == 0
        assert invariant_counts(ZZ, presented.factors, [])[0] == top // bot
        checked += 1


def test_loc_tensor_examples():
    assert iso_type(loc_tensor(R, 2, cyc(12))) == (0, [3])
    assert iso_type(loc_tensor(R, 1, cyc(12))) == (0, [12])
    assert iso_type(loc_tensor(R, 6, cyc(12))) == (0, [])
    with pytest.raises(DomainViolation):
        loc_tensor(R, 2, R)
    with pytest.raises(ValueError, match="cannot invert zero"):
        loc_tensor(R, 0, cyc(12))


def test_loc_tensor_poly():
    rp = FpModule.free(F2, 1)
    x = (0, 1)
    n = FpModule.from_invariants(F2, 0, [F2.mul((0, 1, 1), x)])  # x^2(x+1)
    val = loc_tensor(rp, x, n)
    assert iso_type(val) == (0, [(1, 1)])


@st.composite
def loc_tensor_cases(draw):
    """``(M, x, N)`` with ``x`` nonzero, a unit or sharing primes with ``N``."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    if domain is ZZ:
        x = draw(st.integers(-24, 24).filter(bool))
    else:
        coeffs = st.lists(st.integers(0, domain.p - 1), min_size=1, max_size=3)
        x = domain.elem_from_json(draw(coeffs.filter(any)))
    return random_module(domain, rng), x, random_torsion_module(domain, rng)


@given(loc_tensor_cases())
@settings(max_examples=100, deadline=None)
def test_loc_tensor_matches_per_factor_reference(case):
    module, x, n = case
    assert iso_type(loc_tensor(module, x, n)) == iso_type(loc_tensor_reference(module, x, n))


def test_free_module_from_empty_relations():
    for m in (FpModule.from_relations(ZZ, [], 2),
              FpModule.from_json(ZZ, {"relations": [], "ambient": 2}),
              FpModule.from_json(F5, {"relations": [], "ambient": 2})):
        assert iso_type(m) == (2, []) and m.relations.cols == 0
    assert iso_type(FpModule.from_relations(ZZ, [])) == (0, [])
    with pytest.raises(ValueError, match="relations: 1 rows but ambient is 2"):
        FpModule.from_relations(ZZ, [[2]], 2)
    with pytest.raises(ValueError, match="relations: 2 rows but ambient is 1"):
        FpModule.from_json(ZZ, {"relations": [[2], [3]], "ambient": 1})


def test_module_json_rejects_mistyped_and_oversized_fields():
    # ``rank`` and ``ambient`` cost a document a few bytes each, so they are bounded.
    assert FpModule.from_json(ZZ, {"rank": MAX_GENERATORS}).rank == MAX_GENERATORS
    assert FpModule.from_json(ZZ, {"rank": MAX_GENERATORS - 1, "factors": [2]}).ambient \
        == MAX_GENERATORS
    for doc, message in (({"rank": MAX_GENERATORS + 1}, "rank: expected an integer from 0"),
                         ({"rank": 2**70}, "rank: expected an integer from 0"),
                         ({"factors": [2] * (MAX_GENERATORS + 1)},
                          "factors: rank 0 and 1025 factors exceed 1024 generators"),
                         ({"rank": MAX_GENERATORS - 1, "factors": [2, 2]},
                          "factors: rank 1023 and 2 factors exceed 1024 generators"),
                         ({"relations": [], "ambient": MAX_GENERATORS + 1},
                          "ambient: expected an integer from 0"),
                         ({"factors": "12"}, "factors: expected an array"),
                         ({"relations": "12"}, "relations: expected an array"),
                         ({"relations": ["12"]}, "relations: expected an array")):
        with pytest.raises(ValueError, match=message):
            FpModule.from_json(ZZ, doc)


def test_iso_test_is_rank_and_factors():
    a = FpModule.from_relations(ZZ, [[2, 0], [0, 3]])
    assert iso_type(a) == iso_type(cyc(6))
    assert iso_type(cyc(6)) == iso_type(cyc(2, 3))
    assert iso_type(cyc(8)) != iso_type(cyc(2, 4))
    assert iso_type(R) != iso_type(cyc(6))


def test_module_json_roundtrip():
    m = FpModule.from_relations(ZZ, [[2, 4], [6, 8]])
    doc = m.to_json()
    m2 = FpModule.from_json(ZZ, doc)
    assert m2.ambient == m.ambient and iso_type(m2) == iso_type(m)
    n = FpModule.from_invariants(ZZ, 2, [3, 9])
    assert iso_type(FpModule.from_json(ZZ, n.to_json())) == iso_type(n)


def test_submodule_arithmetic():
    # inside Z: <4> meet <6> = <12>
    meet = sub_intersect(R, Mat(ZZ, [[4]]), Mat(ZZ, [[6]]))
    assert sub_equal(R, meet, Mat(ZZ, [[12]]))
    # inside Z/12: <4> meet <6> = <0>
    m = cyc(12)
    meet = sub_intersect(m, Mat(ZZ, [[4]]), Mat(ZZ, [[6]]))
    assert sub_equal(m, meet, Mat.zero(ZZ, 1, 0))


def test_tensor_mor_matches_indexing():
    f = Morphism(R, R, Mat.scalar(ZZ, 1, 2))
    g = Morphism.identity(cyc(3))
    t = tensor_mor(f, g)
    assert iso_type(t.source) == iso_type(cyc(3))
    assert t.mat.data == ((2,),)


# -- lazy decomposition ---------------------------------------------------------

def test_presentation_only_modules_run_no_smith_form(monkeypatch):
    computed = []
    compute = Mat._snf_full
    monkeypatch.setattr(Mat, "_snf_full", lambda a: computed.append(a) or compute(a))
    # Z/36 (+) Z/10 -> Z/12 (+) Z/20 is 2 on each summand, with kernel <6> = Z/6;
    # modulo the image of the carrier, <12>, that leaves Z/2.
    src = FpModule.from_relations(ZZ, [[36, 0], [0, 10]])
    tgt = FpModule.from_relations(ZZ, [[12, 0], [0, 20]])
    f = Morphism(src, tgt, Mat(ZZ, [[2, 0], [0, 2]]))
    k, incl = src.submodule(f.mat.preimage(tgt.relations))
    carrier = Morphism(FpModule.free(ZZ, 1), src, Mat(ZZ, [[12], [0]]))
    inside = factor_through_reference(carrier, incl)
    quotient = FpModule(ZZ, k.ambient, k.relations.hstack(inside.mat))
    assert computed == []
    # The invariants come from the Smith diagonal alone; the first read of a
    # transform runs the full form once, and the other transform reuses it.
    assert iso_type(quotient) == (0, [2])
    assert computed == []
    assert quotient._to_dec is not None and quotient._from_dec is not None
    assert computed == [quotient.relations]
    assert iso_type(quotient) == (0, [2])


@st.composite
def relation_modules(draw):
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    if domain is ZZ:
        elems = st.integers(-12, 12)
    else:
        elems = st.lists(st.integers(0, domain.p - 1), max_size=3).map(domain.elem_from_json)
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    data = draw(st.lists(st.lists(elems, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return FpModule(domain, rows, Mat(domain, data, rows, cols))


LAZY = ("rank", "factors", "_to_dec", "_from_dec")


@given(relation_modules(), st.permutations(LAZY))
@settings(max_examples=150, deadline=None)
def test_lazy_decomposition_matches_eager_reference(module, order):
    # Whichever part is read first fills in all four.
    got = {name: getattr(module, name) for name in order}
    assert tuple(got[name] for name in LAZY) == decomposition_reference(module)


def test_module_stays_immutable_before_and_after_decomposition():
    m = FpModule.from_relations(ZZ, [[4, 6]])
    for _ in range(2):
        for name in LAZY + ("relations",):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        assert iso_type(m) == (0, [2])
    with pytest.raises(AttributeError):
        m.no_such_attribute


def _nonzero_elems(domain):
    # Units and non-canonical associates included: negative integers, and
    # polynomials that are not monic over GF(5).
    if domain is ZZ:
        return st.integers(-12, 12).filter(bool)
    coeffs = st.integers(0, domain.p - 1)
    return st.lists(coeffs, min_size=1, max_size=3).map(domain.elem_from_json).filter(bool)


@st.composite
def monomial_relations(draw, extra_nonzero=False):
    """Relation matrices in which each column has at most one nonzero entry.

    With ``extra_nonzero``, one column gets a second nonzero entry.
    """
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    elems = _nonzero_elems(domain)
    rows = draw(st.integers(2 if extra_nonzero else 0, 4))
    cols = draw(st.integers(1 if extra_nonzero else 0, 6))
    data = [[domain.zero] * cols for _ in range(rows)]
    for j in range(cols):
        i = draw(st.none() | st.integers(0, rows - 1)) if rows else None
        if i is not None:
            data[i][j] = draw(elems)
    if extra_nonzero:
        j = draw(st.integers(0, cols - 1))
        i1, i2 = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2,
                               unique=True))
        data[i1][j], data[i2][j] = draw(elems), draw(elems)
    return Mat(domain, data, rows, cols)


def _invariants(domain, rows, rel):
    # From the given matrix itself, not from a module built on it.
    presentation = SimpleNamespace(domain=domain, ambient=rows, relations=rel)
    return decomposition_reference(presentation)[:2]


@given(monomial_relations())
@settings(max_examples=300, deadline=None)
def test_monomial_relations_reduce_to_one_gcd_per_row(rel):
    D = rel.domain
    m = FpModule(D, rel.rows, rel)
    new = m.relations
    assert m.ambient == new.rows == rel.rows
    assert new.span_basis() == rel.span_basis()
    # One nonzero per column, and at most one column per row.
    assert all(sum(map(bool, col)) == 1 for col in new.columns())
    assert all(sum(map(bool, row)) <= 1 for row in new.data)
    occupied = [i for i, row in enumerate(rel.data) if any(row)]
    assert new.cols == len(occupied)
    if rel.cols == len(occupied):
        assert new is rel  # already reduced
    assert (m.rank, m.factors) == _invariants(D, rel.rows, rel)


@given(monomial_relations(extra_nonzero=True))
@settings(max_examples=100, deadline=None)
def test_non_monomial_relations_are_kept_as_given(rel):
    m = FpModule(rel.domain, rel.rows, rel)
    assert m.relations is rel
    assert (m.rank, m.factors) == _invariants(rel.domain, rel.rows, rel)


def test_constructions_on_diagonal_modules_keep_one_column_per_generator():
    # [diag(d) | g^n I] and the Kronecker blocks of a tensor product reduce to
    # a diagonal presentation.
    x_plus_1, x_squared = F5.elem_from_json([1, 1]), F5.elem_from_json([0, 0, 1])
    for D, factors, gen in ((ZZ, [2, 12], 6), (F5, [x_plus_1], x_squared)):
        m = FpModule.from_invariants(D, 1, factors)
        for built in (m.power_quotient(Ideal(D, gen), 3), m.tensor(m),
                      m.tensor(m).power_quotient(Ideal(D, gen), 2)):
            assert built.relations.cols <= built.ambient
    assert cyc(4).tensor(cyc(6)).relations == Mat(ZZ, [[2]])


# -- ideal powers --------------------------------------------------------------
# An ideal keeps the powers of its generator it has computed; each missing one
# is a product with the previous one.

@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("D, gen", [(ZZ, 6), (F5, (2, 1))])
def test_negative_exponents_raise(D, gen):
    ideal = Ideal(D, gen)
    with deadline(5):
        for n in (-1, -3):
            with pytest.raises(ValueError):
                D.pow(ideal.gen, n)
            with pytest.raises(ValueError):
                ideal.power_gen(n)
        # With powers kept, -1 must not read the last one.
        ideal.power_gen(4)
        with pytest.raises(ValueError):
            ideal.power_gen(-1)


def ideal_gens(D):
    """The zero and unit generators, and any small element."""
    if D is ZZ:
        anything = st.integers(-30, 30)
    else:
        anything = st.lists(st.integers(0, D.p - 1), max_size=4).map(D.elem_from_json)
    return st.one_of(st.sampled_from([D.zero, D.one]), anything)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_power_gen_matches_pow_in_any_order(data):
    D = data.draw(st.sampled_from([ZZ, F2, F5]))
    gen = data.draw(ideal_gens(D))
    ideal, twin = Ideal(D, gen), Ideal(D, gen)
    key = hash(ideal)
    # Jumps, repeats and 0, in any order.
    for n in data.draw(st.lists(st.integers(0, 25), max_size=12)):
        assert ideal.power_gen(n) == D.pow(ideal.gen, n)
    assert ideal == twin and hash(ideal) == key == hash(twin)
    for attr in ("_powers", "gen", "domain"):
        with pytest.raises(AttributeError):
            setattr(ideal, attr, getattr(ideal, attr, None))


# -- containment by divisibility -------------------------------------------------
# Relations with no column of two nonzeros (pruned: one gcd per occupied row)
# answer ``contains`` entrywise; it must agree with ``solve`` on the relations,
# which is also what any other relation matrix runs.

@st.composite
def containment_cases(draw):
    """``(module, gens)``: monomial relations (zero rows included) or general
    ones, and ``gens`` in the span, empty, or off it in exactly one entry."""
    rel = draw(monomial_relations(extra_nonzero=draw(st.booleans())))
    D, rows = rel.domain, rel.rows
    module = FpModule(D, rows, rel)
    cols = draw(st.integers(0, 3))
    elems = _nonzero_elems(D) | st.just(D.zero)
    coeffs = [[draw(elems) for _ in range(cols)] for _ in range(rel.cols)]
    gens = rel @ Mat(D, coeffs, rel.cols, cols)
    if cols and rows and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        data = [list(r) for r in gens.data]
        data[i][j] = D.add(data[i][j], draw(_nonzero_elems(D)))
        gens = Mat(D, data, rows, cols)
    return module, gens


@given(containment_cases())
@example((FpModule(ZZ, 2, Mat(ZZ, [[4], [0]])), Mat(ZZ, [[8], [1]])))
@example((FpModule(F5, 2, Mat(F5, [[(), ()], [(1, 1), (0, 1)]])), Mat(F5, [[(3,)], [()]])))
@example((FpModule.from_invariants(ZZ, 1, [6]), Mat.zero(ZZ, 2, 0)))
@settings(max_examples=300, deadline=None)
def test_containment_by_divisibility_agrees_with_solve(case):
    module, gens = case
    expected = module.relations.solve(gens) is not None
    assert module.contains(gens) == expected
    assert Morphism(FpModule.free(module.domain, gens.cols), module, gens).is_zero() == expected


def test_morphism_into_a_diagonal_target_is_still_checked():
    # Z/4 -> Z/8 (+) Z: the relation 4 maps to (8, 4), and 4 != 0 in the free row.
    target = FpModule.from_invariants(ZZ, 1, [8])
    with pytest.raises(NotWellDefined):
        Morphism(cyc(4), target, Mat(ZZ, [[2], [1]]))
    assert Morphism(cyc(4), target, Mat(ZZ, [[2], [0]])).mat == Mat(ZZ, [[2], [0]])
    x = F5.elem_from_json([0, 1])
    with pytest.raises(NotWellDefined):
        Morphism(FpModule.cyclic(F5, x), FpModule.cyclic(F5, F5.mul(x, x)), Mat.identity(F5, 1))


def test_direct_sum_with_a_zero_summand_is_the_other_summand():
    m = FpModule.from_invariants(ZZ, 1, [6])
    zero = FpModule.zero(ZZ)
    assert m.direct_sum(zero) is m and zero.direct_sum(m) is m
    assert iso_type(zero.direct_sum(zero)) == (0, [])
    with pytest.raises(BackendMismatch):
        m.direct_sum(FpModule.zero(F5))


# -- slots filled through their descriptors ------------------------------------

def test_every_slot_refuses_setattr_before_and_after_the_lazy_fill():
    ideal = Ideal(ZZ, 6)
    m = FpModule.from_relations(ZZ, [[4, 6], [0, 3]])
    f = Morphism(m, m, Mat.identity(ZZ, 2))
    objs = (Mat(ZZ, [[1, 2]]), ideal, m, f, HomSpace(m, m), AssSet([Ideal(ZZ, 0), I2]),
            CmcSet.explicit(ZZ, [2, 6]), CmcSet.closure(ZZ, [3]),
            ExponentSet(members=[1], progressions=[(2, 2)]))
    for obj in objs:
        message = f"^{type(obj).__name__} is immutable$"
        for _ in range(2):
            # Every slot, and a name that is none, refused by the type's name.
            for name in type(obj).__slots__ + ("not_a_slot",):
                with pytest.raises(AttributeError, match=message):
                    setattr(obj, name, getattr(obj, name, None))
            # Fill every lazy slot, then check again.
            ideal.power_gen(3)
            assert iso_type(m) == (0, [12]) and m._to_dec is not None
    assert ideal._powers == [1, 6, 36, 216]


def test_hom_induced_of_an_endomorphism_builds_one_hom_space(monkeypatch):
    m, n = R.direct_sum(cyc(4)), cyc(2, 8)
    f = Morphism(m, m, Mat(ZZ, [[2, 0], [1, 2]]))
    # Precomposition read off two separately built spaces.
    hl, hk = HomSpace(m, n), HomSpace(m, n)
    cols = [hom_coords(hk, g.compose(f)) for g in hom_generators(hl)]
    built, init = [], HomSpace.__init__
    monkeypatch.setattr(HomSpace, "__init__",
                        lambda self, a, b: built.append(a) or init(self, a, b))
    # The coherent value of f is the cokernel of its precomposition.
    value = CoherentFunctor(f)(n)
    assert len(built) == 1
    assert value.relations == hk.module.quotient(Mat.from_cols(ZZ, cols, len(hk.pairs))).relations
    # A map between two presentations still builds both spaces.
    CoherentFunctor(Morphism(cyc(2), m, Mat(ZZ, [[0], [2]])))(n)
    assert len(built) == 3


def test_shared_hom_space_reads_the_presenting_map_on_its_own_ends(monkeypatch):
    # K and L share a presentation, so one Hom space Hom(K, N) serves both
    # ends, and f is read on L's invariant-factor coordinates where that space
    # has K's: equal relations give equal transforms.  L's Smith form then
    # runs once beside K's, however many values are read.
    k, l = R.direct_sum(cyc(4)), R.direct_sum(cyc(4))
    f = Morphism(k, l, Mat(ZZ, [[2, 0], [1, 2]]))
    assert k is not l and k.relations == l.relations
    computed, compute = [], Mat._snf_full
    monkeypatch.setattr(Mat, "_snf_full", lambda a: computed.append(a) or compute(a))
    targets = (cyc(2, 8), cyc(3), R.direct_sum(cyc(6)))
    values = [CoherentFunctor(f)(n) for n in targets]
    assert computed.count(k.relations) == 2
    assert (l._to_dec, l._from_dec) == (k._to_dec, k._from_dec)
    for n, value in zip(targets, values):
        hk = HomSpace(k, n)
        cols = [hom_coords(hk, g.compose(f)) for g in hom_generators(HomSpace(l, n))]
        assert value.relations == hk.module.quotient(Mat.from_cols(ZZ, cols, len(hk.pairs))).relations


# -- torsion parts as one kernel -------------------------------------------------
# The elements killed by a power of g are the kernel of multiplication by the
# g-part of the largest invariant factor, or by g itself without torsion or
# for g = 0; they must span what the decomposition transform gives factor by
# factor.

@st.composite
def torsion_gens_cases(draw):
    """``(M, g)``: a random relation matrix (the zero module, free modules and
    non-diagonal presentations among them) or a diagonal module with torsion
    and up to two free summands; ``g`` zero, a unit or any small element."""
    if draw(st.booleans()):
        module = draw(relation_modules())
    else:
        domain = draw(st.sampled_from([ZZ, F2, F5]))
        module = random_module(domain, draw(st.randoms(use_true_random=False)), max_rank=2)
    return module, draw(ideal_gens(module.domain))


@given(torsion_gens_cases())
# Factors 2 | 4 with different 2-parts, and g = 0 beside a free summand.
@example((cyc(2, 4), 2))
@example((R.direct_sum(cyc(4)), 0))
@settings(max_examples=300, deadline=None)
def test_torsion_gens_spans_the_decomposition_reference(case):
    module, g = case
    assert sub_equal(module, torsion_gens(module, g), torsion_gens_reference(module, g))
