import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from stab import functors
from stab.domains import ZZ, BackendMismatch, poly_ring
from stab.matrices import Mat
from stab.modules import (FpModule, Morphism, Ideal, HomSpace, DomainViolation, SubmoduleError,
                          sub_contains)
from stab.invariants import CmcSet, ass, ann, gamma, gamma_gens, tau, tau_gens, ann_contains
from stab.functors import (IdentityFunctor, HomFrom, CoherentFunctor,
                           ComplexHomology, GammaFunctor, ModGamma, TauFunctor,
                           ModTau, MiddleFiniteFunctor,
                           EndSummand, OscillatingFunctor, ExponentSet,
                           ext_functor, tor_functor, gamma_as_middle_finite,
                           SkeletonFormError,
                           presentation_map, homology)
from stab.laws import (check_functor_laws, random_module, random_morphism,
                       random_torsion_module)
from oracles import (cyclic_hom_oracle, cyclic_ext_oracle, complex_homology_reference,
                     TensoredComplexHomologyReference, skeleton_pairs_reference,
                     skeleton_reference, oscillating_map_reference,
                     torsion_part_reference, torsion_part_map_reference,
                     torsion_quotient_reference, coherent_map_reference,
                     coherent_value_reference, hom_induced_reference, homology_at_reference,
                     same_span, EnumeratedModule, invariant_counts, iso_type)

F2 = poly_ring(2)
F5 = poly_ring(5)
R = FpModule.free(ZZ, 1)
I2 = Ideal(ZZ, 2)


def cyc(*ds):
    return FpModule.from_invariants(ZZ, 0, list(ds))


def test_identity_eval():
    n = cyc(4)
    assert IdentityFunctor()(n) is n


def test_ext1_tor1_on_two_power_towers():
    e = ext_functor(cyc(2), 1)
    t = tor_functor(cyc(2), 1)
    for k in range(1, 6):
        n = cyc(2**k)
        assert iso_type(e(n)) == (0, [2])
        assert iso_type(t(n)) == (0, [2])


def test_tor1_gcd_formula():
    assert iso_type(tor_functor(cyc(6), 1)(cyc(4))) == (0, [2])
    assert tor_functor(cyc(6), 1)(R).is_zero()
    assert tor_functor(cyc(6), 1)(cyc(35)).is_zero()


def test_ext0_is_hom():
    f = ext_functor(cyc(6), 0)
    assert iso_type(f(cyc(4))) == (0, [2])


def test_tor0_is_tensor():
    f = tor_functor(cyc(6), 0)
    assert iso_type(f(cyc(4))) == (0, [2])
    assert iso_type(f(R)) == (0, [6])


def test_ext1_map_of_projection_is_identity():
    e = ext_functor(cyc(2), 1)
    proj = Morphism(cyc(8), cyc(4), Mat(ZZ, [[1]]))
    induced = e.map(proj)
    assert induced.equals(Morphism.identity(induced.source))


def test_coherent_presenting_morphism_of_ext1():
    pres = presentation_map(cyc(2))
    assert iso_type(pres.source) == (1, [])
    assert iso_type(pres.target) == (1, [])
    assert pres.mat.data == ((2,),)


# -- Hom(M, -) is the coherent functor of M -> 0 ---------------------------------
# ``HomFrom`` evaluates through ``CoherentFunctor``, and submodule containment
# through a quotient; both are compared with the direct constructions.

def _elems(D):
    if D is ZZ:
        nonzero = st.integers(-6, 6)
    else:
        nonzero = st.lists(st.integers(0, D.p - 1), max_size=3).map(D.elem_from_json)
    return st.one_of(st.just(D.zero), nonzero)


@st.composite
def containment_cases(draw):
    D = draw(st.sampled_from([ZZ, F2, F5]))
    k = draw(st.integers(0, 3))

    def mat(rows, cols):
        return Mat(D, draw(st.lists(st.lists(_elems(D), min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)), rows, cols)

    rel, a = mat(k, draw(st.integers(0, 3))), mat(k, draw(st.integers(0, 3)))
    b = mat(k, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        # An element of <a> + relations, so that containment holds.
        b = a.hstack(rel) @ mat(a.cols + rel.cols, b.cols)
    return FpModule(D, k, rel), a, b


@given(containment_cases())
@settings(max_examples=200, deadline=None)
def test_sub_contains_agrees_with_a_stacked_solve(case):
    m, a, b = case
    assert sub_contains(m, a, b) == (a.hstack(m.relations).solve(b) is not None)


def _mixed(D, m, draw):
    """``m``, or ``m`` on a changed generating set, so that its presentation
    is not diagonal."""
    if m.ambient >= 2 and draw(st.booleans()):
        mix = Mat.identity(D, m.ambient).data
        mix = Mat(D, [mix[0], tuple(map(D.add, mix[0], mix[1])), *mix[2:]])
        m = FpModule(D, m.ambient, mix @ m.relations)
    return m


@st.composite
def hom_from_cases(draw):
    D = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    m = _mixed(D, FpModule.zero(D) if draw(st.integers(0, 3)) == 0 else random_module(D, rng),
               draw)
    n, n2 = random_module(D, rng), random_module(D, rng)
    return m, random_morphism(n, n2, rng)


@given(hom_from_cases())
@settings(max_examples=150, deadline=None)
def test_hom_from_matches_the_hom_space_and_its_push(case):
    m, g = case
    functor = HomFrom(m)
    ha, hb = HomSpace(m, g.source), HomSpace(m, g.target)
    assert functor(g.source).relations == ha.module.relations
    # The cokernel of Hom(0, N) -> Hom(M, N), which the evaluation reads off.
    assert coherent_value_reference(functor, g.source).relations == ha.module.relations
    mapped = functor.map(g)
    assert mapped.mat == hom_induced_reference(hb, ha, g=g)
    assert mapped.source.relations == ha.module.relations
    assert mapped.target.relations == hb.module.relations


def test_hom_from_keeps_its_module_and_name():
    functor = HomFrom(cyc(6))
    assert isinstance(functor, CoherentFunctor) and iso_type(functor.m) == (0, [6])
    assert repr(functor) == "Hom(R/(6), -)"
    assert functor.presenting.target.is_zero() and functor.presenting.source is functor.m


def test_ext_tor_match_enumeration_on_cyclic_pairs():
    for a in range(2, 12):
        for b in range(2, 12):
            h = HomSpace(cyc(a), cyc(b)).module
            e = ext_functor(cyc(a), 1)(cyc(b))
            t = tor_functor(cyc(a), 1)(cyc(b))
            g = ZZ.gcd(a, b)
            want = [] if g == 1 else [g]
            assert list(h.factors) == want and h.rank == 0
            assert list(e.factors) == want
            assert list(t.factors) == want
            assert invariant_counts(ZZ, h.factors, [])[0] == cyclic_hom_oracle(a, b)
            assert e.rank == 0
            assert invariant_counts(ZZ, e.factors, [])[0] == cyclic_ext_oracle(a, b)


def test_ext1_independent_direct_path():
    rng = random.Random(3)
    for _ in range(100):
        m = random_torsion_module(ZZ, rng)
        n = random_torsion_module(ZZ, rng)
        via_functor = ext_functor(m, 1)(n)
        pres = presentation_map(m)
        a = pres.mat
        nk = FpModule.zero(ZZ)
        for _ in range(pres.target.ambient):
            nk = nk.direct_sum(n)
        ns = FpModule.zero(ZZ)
        for _ in range(pres.source.ambient):
            ns = ns.direct_sum(n)
        transpose = Mat(ZZ, [[a.data[i][j] for i in range(a.rows)]
                             for j in range(a.cols)], a.cols, a.rows)
        induced = Morphism(nk, ns, transpose.kron(Mat.identity(ZZ, n.ambient)))
        direct = ns.quotient(induced.mat)
        assert iso_type(via_functor) == iso_type(direct)


def test_tor1_independent_direct_path():
    rng = random.Random(4)
    for _ in range(100):
        m = random_torsion_module(ZZ, rng)
        n = random_torsion_module(ZZ, rng)
        via_functor = tor_functor(m, 1)(n)
        pres = presentation_map(m)
        ns = FpModule.zero(ZZ)
        for _ in range(pres.source.ambient):
            ns = ns.direct_sum(n)
        nk = FpModule.zero(ZZ)
        for _ in range(pres.target.ambient):
            nk = nk.direct_sum(n)
        induced = Morphism(ns, nk, pres.mat.kron(Mat.identity(ZZ, n.ambient)))
        direct = ns.spanned(induced.mat.preimage(nk.relations))
        assert iso_type(via_functor) == iso_type(direct)


USER_COHERENT = [
    Morphism(R, R, Mat(ZZ, [[2]])),
    Morphism(cyc(6), cyc(12), Mat(ZZ, [[2]])),
    Morphism(R.direct_sum(cyc(4)), cyc(8), Mat(ZZ, [[3, 2]])),
]


def all_functor_variants():
    yield "identity", IdentityFunctor(), False
    yield "hom_from", HomFrom(cyc(6)), False
    yield "ext1", ext_functor(cyc(4), 1), False
    yield "tor1", tor_functor(cyc(4), 1), False
    for i, f in enumerate(USER_COHERENT):
        yield f"coherent{i}", CoherentFunctor(f), False
    yield "gamma", GammaFunctor(I2), False
    yield "mod_gamma", ModGamma(I2), False
    yield "tau", TauFunctor(CmcSet.explicit(ZZ, [2, 4])), False
    yield "mod_tau", ModTau(CmcSet.closure(ZZ, [2])), False
    yield "middle_finite", gamma_as_middle_finite(I2), True
    yield "oscillating", OscillatingFunctor(
        ZZ, {2: ExponentSet(progressions=[(2, 2)]), 3: ExponentSet(members=[1])}), True


@pytest.mark.parametrize("name,functor,torsion_only",
                         list(all_functor_variants()),
                         ids=[n for n, _, _ in all_functor_variants()])
def test_functor_laws(name, functor, torsion_only):
    rng = random.Random(sum(map(ord, name)))
    failures = check_functor_laws(functor, ZZ, rng, trials=50,
                                  torsion_only=torsion_only)
    assert failures == []


def test_annihilator_monotonicity_all_variants():
    rng = random.Random(17)
    for name, functor, torsion_only in all_functor_variants():
        for _ in range(10):
            n = random_torsion_module(ZZ, rng)
            value = functor(n)
            assert ann_contains(ann(n), ann(value)), name


def test_complex_homology_indices():
    pres = presentation_map(cyc(4))
    zero_head = Morphism.zero_map(FpModule.zero(ZZ), pres.source)
    for i in (0, 1, 2):
        f = ComplexHomology(zero_head, pres, i)
        v = f(cyc(6))
        if i == 0:
            assert iso_type(v) == (0, [2])
        elif i == 1:
            assert iso_type(v) == (0, [2])
        else:
            assert v.is_zero()
    # With a nonzero head, H_2 is the kernel of the head tensored with N.
    two = Morphism(R, R, Mat.scalar(ZZ, 1, 2))
    head = ComplexHomology(two, Morphism.zero_map(R, FpModule.zero(ZZ)), 2)
    assert iso_type(head(cyc(6))) == (0, [2])


@st.composite
def complexes(draw):
    """``(d2, d1, N)``: ``d2`` maps onto part of the kernel of a random ``d1``."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    p1, p0 = random_module(domain, rng), random_module(domain, rng)
    d1 = random_morphism(p1, p0, rng)
    k, incl = p1.submodule(d1.mat.preimage(p0.relations))
    d2 = incl.compose(random_morphism(random_module(domain, rng), k, rng))
    return d2, d1, random_module(domain, rng)


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_complex_homology_matches_per_index_reference(case):
    d2, d1, n = case
    for i in (0, 1, 2):
        got = ComplexHomology(d2, d1, i)(n)
        assert iso_type(got) == iso_type(complex_homology_reference(d2, d1, i, n)), i


@st.composite
def complex_maps(draw):
    """``(d2, d1, g)``: a complex from :func:`complexes` and a map ``g : N -> N'``."""
    d2, d1, n = draw(complexes())
    rng = draw(st.randoms(use_true_random=False))
    return d2, d1, random_morphism(n, random_module(n.domain, rng), rng)


@given(complex_maps())
@settings(max_examples=60, deadline=None)
def test_complex_homology_equals_the_tensored_reference(case):
    # The middle-finite body with plain ends gives the relation spans and map
    # matrices of the complex tensored term by term, zero ends included.
    d2, d1, g = case
    for i in (0, 1, 2):
        got, want = ComplexHomology(d2, d1, i), TensoredComplexHomologyReference(d2, d1, i)
        for n in (g.source, g.target):
            assert same_span(got(n), want(n)), i
        mapped, expected = got.map(g), want.map(g)
        assert mapped.mat == expected.mat, i
        assert same_span(mapped.source, expected.source), i
        assert same_span(mapped.target, expected.target), i


# -- each value by its shortest route -----------------------------------------
# Homology is presented on the kernel generators by one preimage, a coherent
# value is read off one product, and a torsion part is built without its
# inclusion.  Each must equal the route it replaced, kept in ``oracles``.

@st.composite
def homology_cases(draw):
    """``A --f--> B --h--> C`` with ``h f = 0``: a complex from
    :func:`complexes`, or one whose kernel is all of ``B`` because ``h`` is
    zero or ``C`` has no generators."""
    d2, d1, _ = draw(complexes())
    kind = draw(st.sampled_from(["random", "zero_map", "zero_target"]))
    if kind == "zero_map":
        d1 = Morphism.zero_map(d1.source, d1.target)
    elif kind == "zero_target":
        d1 = Morphism.zero_map(d1.source, FpModule.zero(d1.source.domain))
    return d2, d1


@given(homology_cases())
@settings(max_examples=150, deadline=None)
def test_homology_matches_the_kernel_route(case):
    f, h = case
    got, gens = homology(f.mat, h)
    want, include = homology_at_reference(f, h)
    assert gens == include.mat
    assert same_span(got, want)


def test_homology_rejects_a_nonzero_composite():
    with pytest.raises(SubmoduleError):
        homology(Mat(ZZ, [[2]]), Morphism(R, cyc(8), Mat(ZZ, [[1]])))
    # Zero in the target's relations is zero: 4 * 4 vanishes in Z/8, and
    # the kernel 2Z modulo the image 4Z is Z/2.
    assert iso_type(homology(Mat(ZZ, [[4]]), Morphism(R, cyc(8), Mat(ZZ, [[4]])))[0]) \
        == (0, [2])


def _middle_finite_functors(D, rng, k, x):
    """Middle-finite functors over ``D``: ``Gamma_(x)`` as homology, an end
    localized at ``x`` beside a plain one, and ``Tor`` of ``k`` at indices 0,
    1 and 2."""
    r = FpModule.free(D, 1)
    b = r.direct_sum(random_torsion_module(D, rng))
    pres = presentation_map(k)
    head = Morphism.zero_map(FpModule.zero(D), pres.source)
    yield gamma_as_middle_finite(Ideal(D, x))
    yield MiddleFiniteFunctor([EndSummand(r)], b, [EndSummand(r, x)],
                              Mat.from_cols(D, [[D.zero, D.one] + [D.zero] * (b.ambient - 2)],
                                            b.ambient),
                              Mat(D, [[D.one] + [D.zero] * (b.ambient - 1)]))
    yield from (ComplexHomology(head, pres, i) for i in (0, 1, 2))


@st.composite
def changed_functor_cases(draw):
    """A functor whose value route is the shortest one, and a map between
    torsion modules, so that localized ends apply."""
    D = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    k = _mixed(D, random_module(D, rng), draw)
    x = 2 if D is ZZ else D.elem_from_json([0, 1])
    functors_ = [HomFrom(k), ext_functor(k, 1),
                 CoherentFunctor(random_morphism(k, random_module(D, rng), rng)),
                 GammaFunctor(Ideal(D, x)), TauFunctor(CmcSet.closure(D, [x])),
                 *_middle_finite_functors(D, rng, k, x)]
    functor = draw(st.sampled_from(functors_))
    n = _mixed(D, random_torsion_module(D, rng), draw)
    return functor, random_morphism(n, random_torsion_module(D, rng), rng)


@given(changed_functor_cases())
@settings(max_examples=150, deadline=None)
def test_maps_carry_the_presentations_of_the_values(case):
    functor, g = case
    mapped = functor.map(g)
    assert mapped.source.relations == functor(g.source).relations
    assert mapped.target.relations == functor(g.target).relations


@given(changed_functor_cases())
@settings(max_examples=150, deadline=None)
def test_values_match_their_old_routes(case):
    functor, g = case
    n = g.source
    value = functor(n)
    if isinstance(functor, CoherentFunctor):
        f = functor.presenting
        # The read-off pre-, post- and two-sided composition, entry for
        # entry, and the cokernel of the first.
        hk, hb, hl = HomSpace(f.source, n), HomSpace(f.source, g.target), HomSpace(f.target, n)
        for this, other, maps in ((hk, hl, {"f": f}), (hb, hk, {"g": g}),
                                  (hb, hl, {"f": f, "g": g})):
            assert this.induced(other, **maps) == hom_induced_reference(this, other, **maps)
        assert value.relations == coherent_value_reference(functor, n).relations
    elif isinstance(functor, MiddleFiniteFunctor):
        assert same_span(value, homology_at_reference(*functor._tensored(n))[0])
    else:
        gens = gamma_gens if isinstance(functor, GammaFunctor) else tau_gens
        assert value.relations == torsion_part_reference(gens, functor.subset, n)[0].relations


@pytest.mark.parametrize("index", [0, 1, 2])
def test_complex_homology_tensors_each_term_once(monkeypatch, index):
    pres = presentation_map(cyc(4, 12).direct_sum(R))
    d2 = Morphism.zero_map(FpModule.from_invariants(ZZ, 1, [3]), pres.source)
    functor = ComplexHomology(d2, pres, index)
    n = cyc(2, 8)
    tensored, tensor = [], FpModule.tensor
    monkeypatch.setattr(FpModule, "tensor", lambda a, b: tensored.append(a) or tensor(a, b))
    value = functor(n)
    # Each nonzero term once: H_0 and H_2 have an empty end, which is not tensored.
    assert len(tensored) == (3 if index == 1 else 2)
    assert tensored.count(functor.middle) == 1
    assert iso_type(value) == iso_type(complex_homology_reference(d2, pres, index, n))


@pytest.mark.parametrize("index", [0, 2])
def test_complex_homology_end_indices_laws(index):
    pres = presentation_map(cyc(4).direct_sum(R))
    functor = ComplexHomology(Morphism.zero_map(FpModule.zero(ZZ), pres.source), pres, index)
    rng = random.Random(5 + index)
    assert check_functor_laws(functor, ZZ, rng, trials=15) == []


def test_complex_rejects_nonzero_composite():
    two = Morphism(R, R, Mat.scalar(ZZ, 1, 2))
    three = Morphism(R, R, Mat.scalar(ZZ, 1, 3))
    with pytest.raises(ValueError):
        ComplexHomology(two, three, 1)


def test_complex_rejects_maps_meeting_in_different_middle_terms():
    # Both middle terms have ambient rank 1, and the composite 2 is zero in Z/2.
    d2 = Morphism(R, R, Mat(ZZ, [[2]]))
    d1 = Morphism(cyc(4), cyc(2), Mat(ZZ, [[1]]))
    with pytest.raises(ValueError, match="middle term"):
        ComplexHomology(d2, d1, 1)


def test_gamma_functor_map_restricts():
    g = GammaFunctor(I2)
    f = Morphism(cyc(12), cyc(8), Mat(ZZ, [[2]]))
    induced = g.map(f)
    assert iso_type(induced.source) == iso_type(cyc(4))
    assert iso_type(induced.target) == iso_type(cyc(8))
    # composing with inclusions commutes
    _, include_a = gamma(I2, f.source)
    _, include_b = gamma(I2, f.target)
    assert include_b.compose(induced).equals(f.compose(include_a))


def test_middle_finite_matches_gamma_on_torsion_corpus():
    rng = random.Random(23)
    mf = gamma_as_middle_finite(I2)
    gf = GammaFunctor(I2)
    for _ in range(60):
        n = random_torsion_module(ZZ, rng)
        assert iso_type(mf(n)) == iso_type(gf(n))
    assert iso_type(mf(cyc(12))) == (0, [4])
    assert mf(cyc(3)).is_zero()


def test_middle_finite_rejects_non_torsion():
    mf = gamma_as_middle_finite(I2)
    with pytest.raises(DomainViolation):
        mf(R)


def test_middle_finite_zero_middle():
    f = MiddleFiniteFunctor([], FpModule.zero(ZZ), [],
                            Mat.zero(ZZ, 0, 0), Mat.zero(ZZ, 0, 0))
    assert f(cyc(12)).is_zero()


def test_middle_finite_composite_check():
    # R --2--> R --1--> R (no localization) has nonzero composite
    with pytest.raises(ValueError):
        MiddleFiniteFunctor([EndSummand(R, None)], R, [EndSummand(R, None)],
                            Mat(ZZ, [[2]]), Mat(ZZ, [[1]]))
    # same shape but C = R[1/2] still has nonzero composite (2 is not
    # 2-power torsion in R)
    with pytest.raises(ValueError):
        MiddleFiniteFunctor([EndSummand(R, None)], R, [EndSummand(R, 2)],
                            Mat(ZZ, [[2]]), Mat(ZZ, [[1]]))
    # mapping into the 2-power torsion part of R/8 localized at 2 is fine
    MiddleFiniteFunctor([EndSummand(R, None)], R, [EndSummand(cyc(8), 2)],
                        Mat(ZZ, [[2]]), Mat(ZZ, [[1]]))


def test_middle_finite_rejects_inverting_zero_and_defaults_to_zero_maps():
    for a_ends, c_ends, where in (([EndSummand(R, 0)], [], "a[0]"),
                                  ([], [EndSummand(R, None), EndSummand(R, 0)], "c[1]")):
        with pytest.raises(ValueError, match=rf"{re.escape(where)}.invert: cannot invert zero"):
            MiddleFiniteFunctor(a_ends, R, c_ends, None, None)
    f = MiddleFiniteFunctor([EndSummand(R, None)], R, [EndSummand(R, None)], None, None)
    assert f.d_a == Mat.zero(ZZ, 1, 1) and f.d_b == Mat.zero(ZZ, 1, 1)


def test_middle_finite_maps_that_do_not_descend_are_domain_violations(monkeypatch):
    # Z/3 -> Z[1/2], 1 -> 1, passes the composite check (d_a is zero), but
    # tensored with Z/9 it would send 3, which is zero in Z/3 (x) Z/9 = Z/3,
    # to 3, which is not zero in Z/9[1/2] = Z/9.
    f = MiddleFiniteFunctor([], cyc(3), [EndSummand(R, 2)], None, Mat(ZZ, [[1]]))
    with pytest.raises(DomainViolation, match="maps do not descend"):
        f(cyc(9))

    # Any other error while the maps are built is not a domain violation.
    def broken(*args):
        raise ZeroDivisionError("not a descent failure")
    monkeypatch.setattr(functors, "Morphism", broken)
    with pytest.raises(ZeroDivisionError):
        f(cyc(9))


def test_input_rules_reject_zero_primes_and_non_integer_exponents():
    for bad in ([1.5], [True], ["1"], [0]):
        with pytest.raises(ValueError, match="members: expected an integer >= 1"):
            ExponentSet(members=bad)
    with pytest.raises(ValueError, match="progression start"):
        ExponentSet(progressions=[("1", 2)])
    with pytest.raises(ValueError, match="progression step"):
        ExponentSet(progressions=[(1, 2.0)])
    for domain, zero in ((ZZ, 0), (F5, F5.zero)):
        with pytest.raises(ValueError, match="0 is not prime"):
            OscillatingFunctor(domain, {zero: ExponentSet(members=[1])})


def test_middle_finite_nonzero_head_laws():
    b = R.direct_sum(cyc(8))
    functor = MiddleFiniteFunctor(
        [EndSummand(R, None)], b, [EndSummand(R, 2)],
        Mat(ZZ, [[0], [2]]), Mat(ZZ, [[1, 0]]))
    rng = random.Random(71)
    failures = check_functor_laws(functor, ZZ, rng, trials=15, torsion_only=True)
    assert failures == []
    # value sanity: ker(B (x) N -> N[1/2]) / im(2 on the torsion block)
    value = functor(cyc(12))
    assert iso_type(value) == iso_type(cyc(4).direct_sum(cyc(2)))


def test_middle_finite_poly_backend():
    x = (0, 1)
    ideal = Ideal(F2, x)
    mf = gamma_as_middle_finite(ideal)
    n = FpModule.from_invariants(F2, 0, [F2.mul(F2.mul(x, x), (1, 1))])
    got = mf(n)
    want = gamma(ideal, n)[0]
    assert iso_type(got) == iso_type(want)


def test_skeleton_normalization():
    m = cyc(12).direct_sum(cyc(2))
    skel, to_s, from_s = skeleton_reference(m)
    assert skeleton_pairs_reference(skel) == [(2, 1), (2, 2), (3, 1)]
    assert to_s.compose(from_s).equals(Morphism.identity(skel))
    assert from_s.compose(to_s).equals(Morphism.identity(m))
    with pytest.raises(DomainViolation):
        skeleton_reference(R)
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(members=[1])})
    for bad in (lambda: osc(R), lambda: osc.map(Morphism.identity(R.direct_sum(cyc(2))))):
        with pytest.raises(SkeletonFormError, match="torsion modules only"):
            bad()


def test_skeleton_pairs_rejects_unsorted():
    bad = FpModule(ZZ, 2, Mat(ZZ, [[4, 0], [0, 2]]))
    with pytest.raises(SkeletonFormError):
        skeleton_pairs_reference(bad)
    merged = cyc(6)
    with pytest.raises(SkeletonFormError):
        skeleton_pairs_reference(merged)


# Primes of each backend; F2 has no unit but 1, so its associates are equal.
OSC_PRIMES = {ZZ: [2, 3, 5],
              F2: [F2.elem_from_json(c) for c in ([0, 1], [1, 1], [1, 1, 1])],
              F5: [F5.elem_from_json(c) for c in ([0, 1], [1, 1], [2, 0, 1])]}


@st.composite
def _osc_modules(draw, D):
    """A torsion module presented by a diagonal of prime-power products,
    possibly with a generator killed by a unit, and possibly re-presented by
    a unimodular change of generators."""
    factors = draw(st.lists(st.lists(st.tuples(st.sampled_from(OSC_PRIMES[D]),
                                               st.integers(1, 3)), min_size=1, max_size=2),
                            max_size=3))
    diag = [D.one] * draw(st.integers(0, 1))
    for powers in factors:
        d = D.one
        for p, e in powers:
            d = D.mul(d, D.pow(p, e))
        diag.insert(draw(st.integers(0, len(diag))), d)
    k = len(diag)
    rel = Mat.monomial(D, k, list(enumerate(diag)))
    if k >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(k)))[:2]
        mix = [list(row) for row in Mat.identity(D, k).data]
        mix[i][j] = draw(_elems(D))
        rel = Mat(D, mix[::-1] if draw(st.booleans()) else mix) @ rel
    return FpModule(D, k, rel)


@st.composite
def oscillating_maps(draw):
    """An oscillating functor and a map between two drawn torsion modules."""
    D = draw(st.sampled_from([ZZ, F2, F5]))
    rules = {p: ExponentSet(members=draw(st.lists(st.integers(1, 3), max_size=3)))
             for p in OSC_PRIMES[D] if draw(st.booleans())}
    a, b = draw(_osc_modules(D)), draw(_osc_modules(D))
    h = HomSpace(a, b)
    return OscillatingFunctor(D, rules), h.realize([draw(_elems(D)) for _ in h.pairs])


@given(oscillating_maps())
@settings(max_examples=300, deadline=None)
def test_oscillating_map_reads_as_the_skeleton_route(case):
    osc, g = case
    got, want = osc.map(g), oscillating_map_reference(osc, g)
    assert got.mat == want.mat
    assert got.source.relations == want.source.relations == osc(g.source).relations
    assert got.target.relations == want.target.relations == osc(g.target).relations


def test_oscillating_object_rule():
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(progressions=[(2, 2)])})
    seq = [ass(osc(cyc(2**n))) for n in range(1, 6)]
    reprs = [a.to_json() for a in seq]
    assert reprs == [[], ["(2)"], [], ["(2)"], []]
    # unlisted primes die
    assert osc(cyc(9)).is_zero()


def test_oscillating_object_rule_runs_no_smith_transforms(monkeypatch):
    computed = []
    compute = Mat._snf_full
    monkeypatch.setattr(Mat, "_snf_full", lambda a: computed.append(a) or compute(a))
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(members=[1, 3]),
                                  3: ExponentSet(members=[1])})
    n = FpModule.from_relations(ZZ, [[24, 6], [0, 18]])
    value = osc(n)
    assert computed == []
    # The same presentation as the skeleton route gives.
    skeleton_route = oscillating_map_reference(osc, Morphism.identity(n))
    assert value.relations == skeleton_route.source.relations
    assert iso_type(value) == (0, [2, 6])  # n = Z/6 (+) Z/72


def test_oscillating_morphism_block_rule():
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(members=[1, 2])})
    m = FpModule(ZZ, 2, Mat(ZZ, [[2, 0], [0, 4]]))
    g = Morphism(m, m, Mat(ZZ, [[1, 1], [2, 1]]))
    induced = osc.map(g)
    assert induced.mat.data == ((1, 0), (0, 1))
    assert induced.mat == oscillating_map_reference(osc, g).mat


def test_oscillating_laws_two_hundred_pairs_per_prime():
    rng = random.Random(99)
    for prime, pool in ((2, [2, 4, 8]), (3, [3, 9, 27])):
        osc = OscillatingFunctor(ZZ, {prime: ExponentSet(members=[1, 3])})
        failures = check_functor_laws(osc, ZZ, rng, trials=25, torsion_only=True,
                                      module_pool=pool)
        assert failures == []


@pytest.mark.parametrize("D", [F2, F5], ids=["GF2x", "GF5x"])
def test_oscillating_laws_over_poly_rings_at_three_seeds(D):
    x, x1 = D.elem_from_json([0, 1]), D.elem_from_json([1, 1])
    osc = OscillatingFunctor(D, {x: ExponentSet(progressions=[(2, 2)]),
                                 x1: ExponentSet(members=[1, 3])})
    # The default module pool, then one with cubes, where {1, 3} differs from
    # {1} and the progression from its start.
    for pool in (None, [x, D.mul(x, x), D.pow(x, 3), x1, D.pow(x1, 3), D.mul(x, x1)]):
        for seed in (1, 2, 3):
            failures = check_functor_laws(osc, D, random.Random(seed), trials=20,
                                          torsion_only=True, module_pool=pool)
            assert failures == []


def torsion_law_cases():
    """``(backend, functor, module pool)`` for each torsion functor whose laws
    run at three seeds: Gamma at three ideals and tau at explicit sets and
    closures, each with its quotient companion."""
    x, x1, x2 = (0, 1), (1, 1), (2, 1)
    # Over GF(5)[x] the modules also have (x+2)-torsion, which the sets there
    # reach and the default module pool lacks.
    subsets = [("ZZ", ZZ, [0, 2, 6], [[2, 4], [3, 12, 1]], [[2], [2, 3]], None),
               ("GF2x", F2, [F2.zero, x, F2.mul(x, x1)], [[x, F2.mul(x, x)]], [[x1]], None),
               ("GF5x", F5, [F5.zero, x, F5.mul(x, x1)], [[x1, F5.mul(x1, x2)]], [[x, x2]],
                [x, x1, x2, F5.mul(x, x), F5.mul(x1, x2)])]
    for name, D, ideals, explicit, closures, pool in subsets:
        sets = [CmcSet.explicit(D, e) for e in explicit] + [CmcSet.closure(D, c) for c in closures]
        functors = [F(Ideal(D, g)) for g in ideals for F in (GammaFunctor, ModGamma)]
        functors += [F(s) for s in sets for F in (TauFunctor, ModTau)]
        for functor in functors:
            yield pytest.param(D, functor, pool, id=f"{name}-{functor!r}".replace(" ", ""))


@pytest.mark.parametrize("D, functor, pool", torsion_law_cases())
def test_torsion_functor_laws_at_three_seeds(D, functor, pool):
    for seed in (1, 2, 3):
        failures = check_functor_laws(functor, D, random.Random(seed), trials=20,
                                      module_pool=pool)
        assert failures == []


def coherent_law_functors(D):
    """Coherent and homology functors by name, each with whether its laws run
    on torsion modules only."""
    g = 2 if D is ZZ else D.elem_from_json([0, 1])
    # K = R/(g^2) (+) R; the user functor is presented by K -> R/(g^3), (g, 1).
    k = FpModule.from_invariants(D, 1, [D.pow(g, 2)])
    user = Morphism(k, FpModule.cyclic(D, D.pow(g, 3)), Mat(D, [[g, D.one]]))
    pres = presentation_map(k)
    head = Morphism.zero_map(FpModule.zero(D), pres.source)
    functors = {"hom": (HomFrom(k), False), "ext1": (ext_functor(k, 1), False),
                "coherent": (CoherentFunctor(user), False),
                "gamma_middle_finite": (gamma_as_middle_finite(Ideal(D, g)), True)}
    # Tor_i(K, -) for i = 0, 1, 2 through the homology of its resolution.
    functors.update((f"tor{i}", (ComplexHomology(head, pres, i), False)) for i in (0, 1, 2))
    return functors


@pytest.mark.parametrize("kind", sorted(coherent_law_functors(ZZ)))
@pytest.mark.parametrize("D", [ZZ, F2, F5], ids=["ZZ", "GF2x", "GF5x"])
def test_coherent_and_homology_functor_laws_at_three_seeds(D, kind):
    functor, torsion_only = coherent_law_functors(D)[kind]
    for seed in (1, 2, 3):
        failures = check_functor_laws(functor, D, random.Random(seed), trials=20,
                                      torsion_only=torsion_only)
        assert failures == []


def test_oscillating_mixed_primes_blockwise():
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(members=[1]),
                                  3: ExponentSet(members=[2])})
    m = cyc(2).direct_sum(cyc(9))
    assert iso_type(osc(m)) == iso_type(cyc(6))  # R/2 (+) R/3
    # only the surviving exponents contribute
    assert iso_type(osc(cyc(4).direct_sum(cyc(9)))) == iso_type(cyc(3))
    assert osc(cyc(4).direct_sum(cyc(27))).is_zero()


def test_oscillating_rejects_non_prime_rule():
    with pytest.raises(ValueError):
        OscillatingFunctor(ZZ, {4: ExponentSet(members=[1])})


def test_oscillating_rejects_repeated_primes_up_to_associates():
    with pytest.raises(ValueError, match="-2 repeats the prime 2"):
        OscillatingFunctor(ZZ, {2: ExponentSet(members=[1]), -2: ExponentSet(members=[2])})
    x1 = F5.elem_from_json([1, 1])
    with pytest.raises(ValueError, match="repeats the prime"):
        OscillatingFunctor(F5, {x1: ExponentSet(members=[1]),
                                F5.mul(F5.const(3), x1): ExponentSet(members=[1])})
    # Distinct primes keep one rule each.
    osc = OscillatingFunctor(ZZ, {-2: ExponentSet(members=[1]), 3: ExponentSet(members=[2])})
    assert osc.exponents_of(2).members == {1} and osc.exponents_of(3).members == {2}


def test_exponent_set_membership():
    s = ExponentSet(members=[5], progressions=[(2, 3)])
    assert 5 in s and 2 in s and 8 in s and 11 in s
    assert 3 not in s and 1 not in s
    assert 4 not in s


# -- each value and map built once ---------------------------------------------
# ``GammaFunctor`` and ``TauFunctor`` take the part of ``gamma`` or ``tau``, a
# submodule with its inclusion; ``ModGamma`` and ``ModTau`` take ``N/<gens>``
# without presenting the part; and a coherent map reads both values off the
# Hom spaces it pushes between.  Each must equal the construction it replaced.

# (part functor, quotient functor, part, generators) per kind of subset.
TORSION_FUNCTORS = {Ideal: (GammaFunctor, ModGamma, gamma, gamma_gens),
                    CmcSet: (TauFunctor, ModTau, tau, tau_gens)}


@st.composite
def torsion_cases(draw):
    """A zero, unit or small ideal, an explicit set made cmc by adding the
    product of its members, or a closure; and a morphism between random
    modules with up to two free summands, its source on changed generators."""
    D = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    elems = st.lists(_elems(D).filter(lambda a: not D.is_zero(a)), min_size=1, max_size=3)
    kind = draw(st.sampled_from(["gamma", "explicit", "closure"]))
    if kind == "gamma":
        subset = Ideal(D, draw(_elems(D)))
    else:
        members = draw(elems)
        if kind == "explicit":
            prod = D.one
            for a in members:
                prod = D.mul(prod, a)
            subset = CmcSet.explicit(D, members + [prod])
        else:
            subset = CmcSet.closure(D, members)
    n = _mixed(D, random_module(D, rng, max_rank=2), draw)
    g = random_morphism(n, random_module(D, rng, max_rank=2), rng)
    return subset, g


@given(torsion_cases())
@settings(max_examples=150, deadline=None)
def test_torsion_quotients_match_the_quotient_of_the_whole_part(case):
    subset, g = case
    _, quotient_functor, _, gens = TORSION_FUNCTORS[type(subset)]
    functor = quotient_functor(subset)
    for n in (g.source, g.target):
        assert functor(n).relations == torsion_quotient_reference(gens, subset, n).relations
    mapped = functor.map(g)
    assert mapped.mat == g.mat
    assert mapped.source.relations == functor(g.source).relations
    assert mapped.target.relations == functor(g.target).relations


@given(torsion_cases())
@settings(max_examples=150, deadline=None)
def test_torsion_parts_match_the_submodule_reference(case):
    subset, g = case
    part_functor, _, part_of, gens = TORSION_FUNCTORS[type(subset)]
    functor = part_functor(subset)
    for n in (g.source, g.target):
        part, include = part_of(subset, n)
        want_part, want_include, _ = torsion_part_reference(gens, subset, n)
        assert part.ambient == want_part.ambient
        assert part.relations == want_part.relations
        assert _same_morphism(include, want_include)
        assert functor(n).relations == want_part.relations
    assert _same_morphism(functor.map(g), torsion_part_map_reference(gens, subset, g))


@st.composite
def coherent_map_cases(draw):
    """A coherent functor presented by a random ``f : K -> L`` (``L`` zero for
    ``Hom(K, -)``, a free presentation for ``Ext^1``), and a random map."""
    D = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    k = _mixed(D, random_module(D, rng), draw)
    kind = draw(st.sampled_from(["hom", "ext1", "user"]))
    if kind == "hom":
        functor = HomFrom(k)
    elif kind == "ext1":
        functor = ext_functor(k, 1)
    else:
        functor = CoherentFunctor(random_morphism(k, random_module(D, rng), rng))
    n = random_module(D, rng)
    return functor, random_morphism(n, random_module(D, rng), rng)


def _same_morphism(f, g):
    return (f.source.relations == g.source.relations and f.mat == g.mat
            and f.target.relations == g.target.relations)


@given(coherent_map_cases())
@settings(max_examples=100, deadline=None)
def test_coherent_map_matches_the_reference(case):
    functor, g = case
    assert _same_morphism(functor.map(g), coherent_map_reference(functor, g))


@pytest.mark.parametrize("functor", [HomFrom(cyc(6)), ext_functor(cyc(6), 1)],
                         ids=["hom_from", "ext1"])
def test_coherent_map_builds_each_hom_space_once(monkeypatch, functor):
    source, target = R.direct_sum(cyc(4)), R.direct_sum(cyc(8))
    g = Morphism(source, target, Mat(ZZ, [[1, 0], [0, 2]]))
    expected = coherent_map_reference(functor, g)
    built, init = [], HomSpace.__init__
    monkeypatch.setattr(HomSpace, "__init__",
                        lambda self, a, b: built.append(b) or init(self, a, b))
    mapped = functor.map(g)
    assert built == [source, target]
    assert _same_morphism(mapped, expected)


# -- maps by enumeration ----------------------------------------------------------
# Finite modules over Z and GF(2)[x] killed by e = q^2 r, with |A| <= 2^5 so
# that |Hom(K, A)| <= 2^10.  ``Hom(K, A)`` is ``A[d1] x A[d2]`` for
# ``K = R/(d1) (+) R/(d2)``, and ``Gamma_I(A)``, ``tau_S(A)`` are the elements
# that the killers of the part send to zero.  Pushing each element through
# ``g`` residue by residue and counting the classes it reaches in ``B`` gives
# the order of the image of ``F(g)``, with no normal form involved.

@st.composite
def _enumerable_modules(draw, D, divisors, budget):
    """``(+) R/d`` for non-unit ``d`` on one or two generators with
    ``prod |R/d| <= budget``, its generators changed by adding a multiple of
    one to the other."""
    k = draw(st.integers(1, 2))
    diag = []
    norm = {d: abs(d) if D is ZZ else 2 ** (len(d) - 1) for d in divisors}
    for _ in range(k):
        d = draw(st.sampled_from([d for d in divisors if 1 < norm[d] <= budget]))
        budget //= norm[d]
        diag.append(d)
    rows = [[diag[i] if i == j else D.zero for j in range(k)] for i in range(k)]
    if k == 2 and draw(st.booleans()):
        c = draw(st.sampled_from(divisors))
        rows[0] = [D.add(a, D.mul(c, b)) for a, b in zip(rows[0], rows[1])]
    return FpModule(D, k, Mat(D, rows, k, k))


@st.composite
def enumerable_map_cases(draw):
    """``(F, g, e, killer lists)``: one list per factor of the enumerated
    value, ``[d1]`` and ``[d2]`` for ``Hom(K, -)``, the killers of the part
    for ``Gamma`` and ``tau``."""
    D = draw(st.sampled_from([ZZ, F2]))
    q, r = (2, 3) if D is ZZ else ((0, 1), (1, 1))
    qq, qr = D.mul(q, q), D.mul(q, r)
    e = D.mul(qq, r)
    divisors = [D.one, q, r, qq, qr, e]
    a = draw(_enumerable_modules(D, divisors, 32))
    b = draw(_enumerable_modules(D, divisors, 144))
    g = random_morphism(a, b, draw(st.randoms(use_true_random=False)))
    kind = draw(st.sampled_from(["hom", "gamma", "tau"]))
    if kind == "hom":
        ds = draw(st.lists(st.sampled_from(divisors[1:]), min_size=1, max_size=2))
        return HomFrom(FpModule.from_invariants(D, 0, ds)), g, e, [[d] for d in ds]
    if kind == "gamma":
        x = draw(st.sampled_from([q, r, qr, D.one, D.zero]))
        return GammaFunctor(Ideal(D, x)), g, e, [[D.mul(x, x)]]
    members = draw(st.lists(st.sampled_from([q, r, qq]), min_size=1, max_size=2))
    prod = D.one
    for m in members:
        prod = D.mul(prod, m)
    if draw(st.booleans()):
        subset = CmcSet.explicit(D, members + [prod])
        return TauFunctor(subset), g, e, [list(subset.elems)]
    return TauFunctor(CmcSet.closure(D, members)), g, e, [[D.mul(prod, prod)]]


@given(enumerable_map_cases())
@settings(max_examples=100, deadline=None)
def test_map_images_match_the_enumeration(case):
    functor, g, e, killer_lists = case
    ea, eb = EnumeratedModule(g.source, e), EnumeratedModule(g.target, e)
    rep = eb.classes()
    lifts = [ea.killed(killers) for killers in killer_lists]
    assert math.prod(len(lift) // len(ea.zero_set) for lift in lifts) <= 2 ** 10
    want = math.prod(len({rep[eb.image(g.mat, v)] for v in lift}) for lift in lifts)
    mapped = functor.map(g)
    image = mapped.target.spanned(mapped.mat)
    assert image.rank == 0
    assert invariant_counts(g.source.domain, image.factors, [])[0] == want


# -- a module over another backend ----------------------------------------------

def one_functor_of_each_kind(D):
    """One functor of each kind over ``D``, built from its prime ``g``."""
    g = 2 if D is ZZ else D.elem_from_json([0, 1])
    k = FpModule.cyclic(D, g)
    return {
        "hom_from": HomFrom(k),
        "coherent": CoherentFunctor(Morphism(FpModule.free(D, 1), k, Mat.identity(D, 1))),
        "homology": tor_functor(k, 1),
        "middle_finite": gamma_as_middle_finite(Ideal(D, g)),
        "gamma": GammaFunctor(Ideal(D, g)),
        "mod_gamma": ModGamma(Ideal(D, g)),
        "tau": TauFunctor(CmcSet.explicit(D, [g])),
        "mod_tau": ModTau(CmcSet.closure(D, [g])),
        "oscillating": OscillatingFunctor(D, {g: ExponentSet(members=[1])}),
    }


@pytest.mark.parametrize("kind", sorted(one_functor_of_each_kind(ZZ)))
@pytest.mark.parametrize("own, other", [(ZZ, F5), (F5, ZZ), (F2, F5)],
                         ids=["ZZ-on-GF5x", "GF5x-on-ZZ", "GF2x-on-GF5x"])
def test_functor_rejects_a_module_over_another_backend(kind, own, other):
    functor = one_functor_of_each_kind(own)[kind]
    h = 3 if other is ZZ else other.elem_from_json([1, 1])
    n = FpModule.cyclic(other, other.mul(h, h))
    for apply in (lambda: functor(n), lambda: functor.map(Morphism.identity(n))):
        with pytest.raises(BackendMismatch) as raised:
            apply()
        # Exactly BackendMismatch, not some other TypeError from the arithmetic.
        assert raised.type is BackendMismatch
