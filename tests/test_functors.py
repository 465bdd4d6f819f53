import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from stab import functors
from stab.domains import ZZ, poly_ring
from stab.matrices import Mat
from stab.modules import FpModule, Morphism, Ideal, HomSpace, DomainViolation
from stab.invariants import CmcSet, ass, ann, gamma, ann_contains
from stab.functors import (IdentityFunctor, HomFrom, CoherentFunctor,
                           ComplexHomology, GammaFunctor, ModGamma, TauFunctor,
                           ModTau, MiddleFiniteFunctor,
                           EndSummand, OscillatingFunctor, ExponentSet,
                           ext_functor, tor_functor, gamma_as_middle_finite,
                           skeleton, skeleton_pairs, SkeletonFormError,
                           presentation_map)
from stab.laws import (check_functor_laws, random_module, random_morphism,
                       random_torsion_module)
from oracles import cyclic_hom_oracle, cyclic_ext_oracle, complex_homology_reference

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
        assert e(n).decompose() == (0, [2])
        assert t(n).decompose() == (0, [2])


def test_tor1_gcd_formula():
    assert tor_functor(cyc(6), 1)(cyc(4)).decompose() == (0, [2])
    assert tor_functor(cyc(6), 1)(R).is_zero()
    assert tor_functor(cyc(6), 1)(cyc(35)).is_zero()


def test_ext0_is_hom():
    f = ext_functor(cyc(6), 0)
    assert f(cyc(4)).decompose() == (0, [2])


def test_tor0_is_tensor():
    f = tor_functor(cyc(6), 0)
    assert f(cyc(4)).decompose() == (0, [2])
    assert f(R).decompose() == (0, [6])


def test_ext1_map_of_projection_is_identity():
    e = ext_functor(cyc(2), 1)
    proj = Morphism(cyc(8), cyc(4), Mat(ZZ, [[1]]))
    induced = e.map(proj)
    assert induced.equals(Morphism.identity(induced.source))


def test_coherent_presenting_morphism_of_ext1():
    pres = presentation_map(cyc(2))
    assert pres.source.decompose() == (1, [])
    assert pres.target.decompose() == (1, [])
    assert pres.mat.data == ((2,),)


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
            assert (h.element_count() or 1) == cyclic_hom_oracle(a, b)
            assert (e.element_count() or 1) == cyclic_ext_oracle(a, b)


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
        direct, _ = induced.cokernel()
        assert via_functor.is_isomorphic_to(direct)


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
        direct, _ = induced.kernel()
        assert via_functor.is_isomorphic_to(direct)


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
            assert v.decompose() == (0, [2])
        elif i == 1:
            assert v.decompose() == (0, [2])
        else:
            assert v.is_zero()
    # With a nonzero head, H_2 is the kernel of the head tensored with N.
    head = ComplexHomology(Morphism.mult_by(2, R), Morphism.zero_map(R, FpModule.zero(ZZ)), 2)
    assert head(cyc(6)).decompose() == (0, [2])


@st.composite
def complexes(draw):
    """``(d2, d1, N)``: ``d2`` maps onto part of the kernel of a random ``d1``."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    p1, p0 = random_module(domain, rng), random_module(domain, rng)
    d1 = random_morphism(p1, p0, rng)
    k, incl = d1.kernel()
    d2 = incl.compose(random_morphism(random_module(domain, rng), k, rng))
    return d2, d1, random_module(domain, rng)


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_complex_homology_matches_per_index_reference(case):
    d2, d1, n = case
    for i in (0, 1, 2):
        got = ComplexHomology(d2, d1, i)(n)
        assert got.is_isomorphic_to(complex_homology_reference(d2, d1, i, n)), i


@pytest.mark.parametrize("index", [0, 1, 2])
def test_complex_homology_tensors_each_term_once(monkeypatch, index):
    pres = presentation_map(cyc(4, 12).direct_sum(R))
    d2 = Morphism.zero_map(FpModule.from_invariants(ZZ, 1, [3]), pres.source)
    functor = ComplexHomology(d2, pres, index)
    n = cyc(2, 8)
    tensored, tensor = [], FpModule.tensor
    monkeypatch.setattr(FpModule, "tensor", lambda a, b: tensored.append(a) or tensor(a, b))
    value = functor(n)
    assert len(tensored) == 3 and tensored.count(functor.middle) == 1
    assert value.is_isomorphic_to(complex_homology_reference(d2, pres, index, n))


@pytest.mark.parametrize("index", [0, 2])
def test_complex_homology_end_indices_laws(index):
    pres = presentation_map(cyc(4).direct_sum(R))
    functor = ComplexHomology(Morphism.zero_map(FpModule.zero(ZZ), pres.source), pres, index)
    rng = random.Random(5 + index)
    assert check_functor_laws(functor, ZZ, rng, trials=15) == []


def test_complex_rejects_nonzero_composite():
    two = Morphism.mult_by(2, R)
    three = Morphism.mult_by(3, R)
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
    assert induced.source.is_isomorphic_to(cyc(4))
    assert induced.target.is_isomorphic_to(cyc(8))
    # composing with inclusions commutes
    ga, gb = gamma(I2, f.source), gamma(I2, f.target)
    assert gb.include.compose(induced).equals(f.compose(ga.include))


def test_middle_finite_matches_gamma_on_torsion_corpus():
    rng = random.Random(23)
    mf = gamma_as_middle_finite(I2)
    gf = GammaFunctor(I2)
    for _ in range(60):
        n = random_torsion_module(ZZ, rng)
        assert mf(n).is_isomorphic_to(gf(n))
    assert mf(cyc(12)).decompose() == (0, [4])
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
    assert value.is_isomorphic_to(cyc(4).direct_sum(cyc(2)))


def test_middle_finite_poly_backend():
    x = (0, 1)
    ideal = Ideal(F2, x)
    mf = gamma_as_middle_finite(ideal)
    n = FpModule.from_invariants(F2, 0, [F2.mul(F2.mul(x, x), (1, 1))])
    got = mf(n)
    want = gamma(ideal, n).part
    assert got.is_isomorphic_to(want)


def test_skeleton_normalization():
    m = cyc(12).direct_sum(cyc(2))
    skel, to_s, from_s = skeleton(m)
    assert skeleton_pairs(skel) == [(2, 1), (2, 2), (3, 1)]
    assert to_s.compose(from_s).equals(Morphism.identity(skel))
    assert from_s.compose(to_s).equals(Morphism.identity(m))
    with pytest.raises(DomainViolation):
        skeleton(R)


def test_skeleton_pairs_rejects_unsorted():
    bad = FpModule(ZZ, 2, Mat(ZZ, [[4, 0], [0, 2]]))
    with pytest.raises(SkeletonFormError):
        skeleton_pairs(bad)
    merged = cyc(6)
    with pytest.raises(SkeletonFormError):
        skeleton_pairs(merged)


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
    skel, _, _ = skeleton(n)
    assert value.relations == osc.eval_skeleton(skel).relations
    assert value.decompose() == (0, [2, 6])  # n = Z/6 (+) Z/72


def test_oscillating_morphism_block_rule():
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(members=[1, 2])})
    m = FpModule(ZZ, 2, Mat(ZZ, [[2, 0], [0, 4]]))
    g = Morphism(m, m, Mat(ZZ, [[1, 1], [2, 1]]))
    induced = osc.map_skeleton(g)
    assert induced.mat.data == ((1, 0), (0, 1))


def test_oscillating_laws_two_hundred_pairs_per_prime():
    rng = random.Random(99)
    for prime, pool in ((2, [2, 4, 8]), (3, [3, 9, 27])):
        osc = OscillatingFunctor(ZZ, {prime: ExponentSet(members=[1, 3])})
        failures = check_functor_laws(osc, ZZ, rng, trials=25, torsion_only=True,
                                      module_pool=pool)
        assert failures == []


def test_oscillating_mixed_primes_blockwise():
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(members=[1]),
                                  3: ExponentSet(members=[2])})
    m = cyc(2).direct_sum(cyc(9))
    assert osc(m).is_isomorphic_to(cyc(6))  # R/2 (+) R/3
    # only the surviving exponents contribute
    assert osc(cyc(4).direct_sum(cyc(9))).is_isomorphic_to(cyc(3))
    assert osc(cyc(4).direct_sum(cyc(27))).is_zero()


def test_oscillating_rejects_non_prime_rule():
    with pytest.raises(ValueError):
        OscillatingFunctor(ZZ, {4: ExponentSet(members=[1])})


def test_exponent_set_membership():
    s = ExponentSet(members=[5], progressions=[(2, 3)])
    assert 5 in s and 2 in s and 8 in s and 11 in s
    assert 3 not in s and 1 not in s
    assert 4 not in s
