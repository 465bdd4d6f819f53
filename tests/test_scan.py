import json

import pytest
from hypothesis import example, given, settings, strategies as st

from stab import scan
from stab.domains import ZZ, poly_ring
from stab.matrices import Mat
from stab.modules import FpModule, Morphism, Ideal, SubmoduleError
from stab.invariants import DEPTH_INF, AssSet, CmcSet, ass, depth
from stab.functors import (CoherentFunctor, OscillatingFunctor, ExponentSet,
                           IdentityFunctor, HomFrom, GammaFunctor, ModGamma,
                           TauFunctor, ModTau, ext_functor, tor_functor)
from stab.scan import (QuotientPowers, Layers, GradedLayers, SubquotientFamily,
                       KwHomology, detect, scan_rows,
                       artin_rees_probe, AnnihilatorViolation)
from stab.scenario import parse_scenario, run_scenario
from stab.cli import _iter_packaged_scenarios
from stab.laws import random_module, random_morphism
from oracles import (HOM_KINDS, TORSION_KINDS, periodic_tail_reference,
                     quotient_scan_reference, elementary_divisors_over,
                     artin_rees_probe_reference, factor_through_reference,
                     homology_at_reference, same_span, iso_type)

F2 = poly_ring(2)
F5 = poly_ring(5)
R = FpModule.free(ZZ, 1)
I2 = Ideal(ZZ, 2)


def cyc(*ds):
    return FpModule.from_invariants(ZZ, 0, list(ds))


def test_family_generate_examples():
    fam = QuotientPowers(R.direct_sum(cyc(8)), I2)
    assert iso_type(fam.generate(5)) == (0, [8, 32])
    fam = Layers(R, I2)
    assert iso_type(fam.generate(3)) == (0, [2])
    fam = SubquotientFamily(R, Mat(ZZ, [[4]]), Mat(ZZ, [[1]]), Mat(ZZ, [[2]]), I2)
    assert iso_type(fam.generate(3)) == (0, [4])


def test_graded_layers_generate():
    fam = GradedLayers(R, Mat(ZZ, [[2]]), Ideal(ZZ, 3))
    for n in range(1, 5):
        assert iso_type(fam.generate(n)) == (0, [2])


# -- work done once per family, not once per row ---------------------------------

def record_calls(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` so that each call records its first argument."""
    seen, original = [], getattr(owner, attr)

    def recorded(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)
    monkeypatch.setattr(owner, attr, recorded)
    return seen


M8 = R.direct_sum(cyc(8))
SUBQUOTIENT_FAMILIES = {
    "layers": (Layers, (I2,)),
    "graded_layers": (GradedLayers, (Mat(ZZ, [[2, 0], [0, 1]]), I2)),
    "subquotient": (SubquotientFamily, (Mat.zero(ZZ, 2, 0), Mat(ZZ, [[1, 0], [0, 2]]),
                                        Mat(ZZ, [[2, 0], [0, 4]]), I2)),
}


@pytest.mark.parametrize("kind", sorted(SUBQUOTIENT_FAMILIES))
def test_a_subquotient_family_checks_w_inside_v_once(monkeypatch, kind):
    checks = record_calls(monkeypatch, FpModule, "check_subquotient")
    cls, args = SUBQUOTIENT_FAMILIES[kind]
    family = cls(M8, *args)
    result = scan_rows(family, None, I2, horizon=12, window=4)
    assert len(result.rows) == 12 and checks == [M8]
    # Each row is what the checked construction gives, which checks per call.
    for row in result.rows:
        # Layer n is the subquotient at exponent n - 1.
        n = row.n - 1 if kind == "layers" else row.n
        direct = M8.subquotient(family.u, family.v, family.w, I2, n)
        assert row.value.relations == direct.relations
    assert len(checks) == 1 + len(result.rows)


def test_an_invalid_subquotient_is_refused_at_build_and_by_every_direct_call(monkeypatch):
    checks = record_calls(monkeypatch, FpModule, "check_subquotient")
    u, v, w = Mat.zero(ZZ, 1, 0), Mat(ZZ, [[4]]), Mat(ZZ, [[2]])
    with pytest.raises(SubmoduleError):
        SubquotientFamily(R, u, v, w, I2)
    for n in range(3):
        with pytest.raises(SubmoduleError):
            R.subquotient(u, v, w, I2, n)
    assert len(checks) == 4


def test_kw_homology_generate():
    zero = FpModule.zero(ZZ)
    alpha = Morphism(R, R, Mat(ZZ, [[2]]))
    beta = Morphism(R, zero, Mat.zero(ZZ, 0, 1))
    fam = KwHomology(alpha, beta, Mat(ZZ, [[1]]), Mat(ZZ, [[1]]),
                     Mat.zero(ZZ, 0, 0), I2)
    # H(n) = (Z/2^n) / 2(Z/2^n) = Z/2
    for n in (1, 2, 5):
        assert iso_type(fam.generate(n)) == (0, [2])


def test_kw_homology_shifted():
    zero = FpModule.zero(ZZ)
    alpha = Morphism(R, R, Mat(ZZ, [[2]]))
    beta = Morphism(R, zero, Mat.zero(ZZ, 0, 1))
    fam = KwHomology(alpha, beta, Mat(ZZ, [[1]]), Mat(ZZ, [[1]]),
                     Mat.zero(ZZ, 0, 0), I2,
                     shift=(Mat(ZZ, [[2]]), Mat(ZZ, [[1]]), 1))
    # image = 4Z + 2^n Z inside Z/2^n: H(n) = Z/4 for n >= 2
    assert iso_type(fam.generate(1)) == (0, [2])
    for n in (2, 3, 6):
        assert iso_type(fam.generate(n)) == (0, [4])


@st.composite
def kw_cases(draw):
    """A family ``L/I^n L -> M/I^n M -> N/I^n N`` of a random complex whose
    first map lands in the kernel of the second, and an index."""
    D = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    beta = random_morphism(random_module(D, rng), random_module(D, rng), rng)
    k, incl = beta.source.submodule(beta.mat.preimage(beta.target.relations))
    alpha = incl.compose(random_morphism(random_module(D, rng), k, rng))
    g = draw(st.sampled_from([2, 3] if D is ZZ else [D.elem_from_json(c)
                                                    for c in ([0, 1], [1, 1])]))
    subs = [Mat.identity(D, m.ambient) for m in (alpha.source, alpha.target, beta.target)]
    return KwHomology(alpha, beta, *subs, Ideal(D, g)), draw(st.integers(0, 4))


@given(kw_cases())
@settings(max_examples=100, deadline=None)
def test_kw_homology_matches_the_kernel_route(case):
    fam, n = case
    g_n = fam.ideal.power_gen(n)
    m_n = fam.alpha.target.quotient(fam.m_sub.scale(g_n))
    n_n = fam.beta.target.quotient(fam.n_sub.scale(g_n))
    carrier = Morphism(FpModule.free(m_n.domain, fam.alpha.mat.cols), m_n, fam.alpha.mat)
    want, _ = homology_at_reference(carrier, Morphism(m_n, n_n, fam.beta.mat))
    assert same_span(fam.generate(n), want)


def test_kw_homology_validates_complex():
    alpha = Morphism(R, R, Mat(ZZ, [[2]]))
    beta = Morphism(R, R, Mat(ZZ, [[3]]))
    with pytest.raises(ValueError):
        KwHomology(alpha, beta, Mat(ZZ, [[1]]), Mat(ZZ, [[1]]), Mat(ZZ, [[1]]), I2)


def test_kw_homology_validates_shift_containment():
    zero = FpModule.zero(ZZ)
    alpha = Morphism(R, R, Mat(ZZ, [[2]]))
    beta = Morphism(R, zero, Mat.zero(ZZ, 0, 1))
    with pytest.raises(ValueError):
        KwHomology(alpha, beta, Mat(ZZ, [[1]]), Mat(ZZ, [[1]]),
                   Mat.zero(ZZ, 0, 0), I2,
                   shift=(Mat(ZZ, [[1]]), Mat(ZZ, [[4]]), 1))


def _ass_of(*ps):
    return AssSet([Ideal(ZZ, p) for p in ps])


def test_detect_stable():
    values = [_ass_of(2, 3)] + [_ass_of(2)] * 9
    status, n0, period = detect(list(range(1, 11)), values, 5)
    assert status == "stable" and n0 == 2 and period is None


def test_detect_not_stable():
    values = [_ass_of(2) if i % 5 == 0 else _ass_of(3 + i) for i in range(12)]
    status, n0, period = detect(list(range(1, 13)), values, 4)
    assert status == "not-stable-within-horizon" and n0 is None


def test_detect_periodic():
    values = [_ass_of(2) if i % 2 == 0 else AssSet([]) for i in range(12)]
    status, n0, period = detect(list(range(1, 13)), values, 4)
    assert status == "oscillating-with-period-2" and period == 2


def test_detect_periodic_after_transient():
    a, b, c, d, x, y = (_ass_of(p) for p in (3, 5, 7, 11, 2, 13))
    values = [a, b, c, d] + [x, y] * 18
    assert detect(list(range(1, 41)), values, 10) == ("oscillating-with-period-2", 5, 2)
    # A period that holds from the first index keeps n0 null.
    assert detect(list(range(1, 37)), [x, y] * 18, 10) == ("oscillating-with-period-2", None, 2)
    # Period 3 after a one-value transient; its multiple 6 also fits but is longer.
    values = [a] + [x, y, AssSet([])] * 5
    assert detect(list(range(4, 20)), values, 6) == ("oscillating-with-period-3", 5, 3)


def test_detect_periodic_tail_must_cover_window_and_two_periods():
    first = [_ass_of(p) for p in (3, 5, 7, 11, 13, 17, 19, 23)]
    x, y = _ass_of(2), AssSet([])
    # Tail of 8 alternating values: enough for window 8, not for window 9.
    assert detect(list(range(16)), first + [x, y] * 4, 8)[0] == "oscillating-with-period-2"
    assert detect(list(range(16)), first + [x, y] * 4, 9)[0] == "not-stable-within-horizon"
    # Period 5 needs ten observations even under a shorter window.
    five = [_ass_of(p) for p in (29, 31, 37, 41, 43)]
    assert detect(list(range(17)), first[:7] + five * 2, 4) == ("oscillating-with-period-5", 7, 5)
    assert detect(list(range(16)), first[:7] + five + five[:4], 4)[0] == \
        "not-stable-within-horizon"


@st.composite
def transient_then_pattern(draw):
    transient = draw(st.lists(st.integers(0, 3), max_size=6))
    pattern = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    return transient + pattern * draw(st.integers(1, 8))


@given(st.one_of(st.lists(st.integers(0, 2), min_size=4, max_size=30),
                 transient_then_pattern()),
       st.integers(2, 8))
@settings(max_examples=300, deadline=None)
def test_detect_periodic_matches_exhaustive_reference(values, window):
    if window > len(values):
        return
    ns = list(range(1, len(values) + 1))
    status, n0, period = detect(ns, values, window)
    if status == "stable":
        assert len(set(values[-window:])) == 1
        return
    found = periodic_tail_reference(values, window)
    if found is None:
        assert (status, n0, period) == ("not-stable-within-horizon", None, None)
    else:
        s, k = found
        assert (status, n0, period) == (f"oscillating-with-period-{k}", ns[s] if s else None, k)


def test_detect_window_validation():
    with pytest.raises(ValueError):
        detect([1, 2], [_ass_of(2), _ass_of(2)], 5)


def test_scan_ass_identity_example():
    rep = scan_rows(QuotientPowers(R, I2), horizon=20, window=5).ass_report
    assert rep.status == "stable" and rep.n0 == 1
    assert all(v == _ass_of(2) for _, v in rep.observations)


def test_scan_ass_tor1_example():
    rep = scan_rows(QuotientPowers(R, I2), tor_functor(cyc(4), 1),
                    horizon=20, window=5).ass_report
    assert rep.status == "stable" and rep.n0 == 1
    assert all(v == _ass_of(2) for _, v in rep.observations)


def test_scan_ass_oscillating():
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(progressions=[(2, 2)])})
    rep = scan_rows(QuotientPowers(R, I2), osc, horizon=40, window=10).ass_report
    assert rep.status == "oscillating-with-period-2"


def test_scan_depth_examples():
    m = R.direct_sum(cyc(8))
    rep = scan_rows(QuotientPowers(m, I2), None, Ideal(ZZ, 2),
                    horizon=20, window=5).depth_report
    assert rep.status == "stable"
    assert all(v == 0 for _, v in rep.observations)
    rep = scan_rows(QuotientPowers(m, I2), None, Ideal(ZZ, 3),
                    horizon=20, window=5).depth_report
    assert all(v == DEPTH_INF for _, v in rep.observations)
    rep = scan_rows(QuotientPowers(m, I2), None, Ideal(ZZ, 1),
                    horizon=20, window=5).depth_report
    assert all(v == DEPTH_INF for _, v in rep.observations)


def test_scan_depth_free_module_value_one():
    # identity functor on M/I^n M for M with free part: depth (3) on
    # Z/2^n (+) ... exercises the regular-element branch
    rep = scan_rows(QuotientPowers(R.direct_sum(R), Ideal(ZZ, 6)), None, Ideal(ZZ, 3),
                    horizon=14, window=5).depth_report
    assert rep.status == "stable"
    assert all(v == 0 for _, v in rep.observations)  # 3 divides 6^n


def test_scan_rows_carries_everything():
    res = scan_rows(QuotientPowers(R.direct_sum(cyc(8)), I2), None, Ideal(ZZ, 2),
                    horizon=15, window=5)
    assert len(res.rows) == 15
    assert res.rows[0].n == 1
    assert res.depth_report is not None


class _Counting:
    """A functor that counts its evaluations."""

    def __init__(self, functor):
        self.functor, self.calls = functor, 0

    def __call__(self, n):
        self.calls += 1
        return self.functor(n)


def _stabilizing_family(kind, domain, g, d):
    """A family whose presentations settle after changing at least once."""
    one = domain.one
    r = FpModule.free(domain, 1)
    ideal = Ideal(domain, g)
    if kind == "layers":
        return Layers(r.direct_sum(FpModule.cyclic(domain, d)), ideal)
    if kind == "graded":
        return GradedLayers(r.direct_sum(FpModule.cyclic(domain, d)),
                            Mat(domain, [[g], [one]]), ideal)
    alpha = Morphism(r, r, Mat(domain, [[g]]))
    beta = Morphism(r, FpModule.zero(domain), Mat.zero(domain, 0, 1))
    return KwHomology(alpha, beta, Mat(domain, [[one]]), Mat(domain, [[one]]),
                      Mat.zero(domain, 0, 0), ideal,
                      shift=(Mat(domain, [[g]]), Mat(domain, [[one]]), 1))


@pytest.mark.parametrize("kind", ["layers", "graded", "kw"])
@pytest.mark.parametrize("domain, g, d", [(ZZ, 2, 8), (F2, (0, 1), (0, 0, 0, 1))],
                         ids=["ZZ", "GF2x"])
def test_scan_evaluates_once_per_run_of_equal_presentations(kind, domain, g, d,
                                                             monkeypatch):
    fam = _stabilizing_family(kind, domain, g, d)
    functor = _Counting(HomFrom(FpModule.cyclic(domain, domain.mul(g, g))))
    checks, contains = [], scan.ann_contains
    monkeypatch.setattr(scan, "ann_contains",
                        lambda a, b: checks.append(1) or contains(a, b))
    res = scan_rows(fam, functor, Ideal(domain, g), horizon=12, window=4)
    relations = [fam.generate(r.n).relations for r in res.rows]
    runs = 1 + sum(a != b for a, b in zip(relations, relations[1:]))
    assert 1 < runs < len(res.rows)
    assert functor.calls == runs
    assert len(res.rows) == len(checks)


PRIMES = {ZZ: [2, 3, 5], F2: [(0, 1), (1, 1), (1, 1, 1)], F5: [(0, 1), (2, 1), (2, 0, 1)]}


@st.composite
def scan_cases(draw):
    """``(family, functor, depth ideal, horizon)`` over a random module and
    ideal; elements are products of one to three pool primes."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    pool = st.sampled_from(PRIMES[domain])

    def elem(max_primes=3):
        e = domain.one
        for p in draw(st.lists(pool, min_size=1, max_size=max_primes)):
            e = domain.mul(e, p)
        return e

    module = FpModule.free(domain, draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(0 if module.ambient else 1, 2))):
        module = module.direct_sum(FpModule.cyclic(domain, elem()))
    ideal = Ideal(domain, elem(2))
    kind = draw(st.sampled_from(["quotient", "layers", "graded"]))
    if kind == "quotient":
        family = QuotientPowers(module, ideal)
    elif kind == "layers":
        family = Layers(module, ideal)
    else:
        entry = st.one_of(st.just(domain.zero), st.just(domain.one), pool)
        cols = draw(st.integers(1, 2))
        family = GradedLayers(module, Mat(domain, [[draw(entry) for _ in range(cols)]
                                                   for _ in range(module.ambient)]), ideal)
    other = draw(st.sampled_from([FpModule.free(domain, 1),
                                  FpModule.cyclic(domain, elem())]))
    functor = draw(st.sampled_from([IdentityFunctor(), HomFrom(other),
                                    ext_functor(other, 1), tor_functor(other, 1),
                                    GammaFunctor(Ideal(domain, elem(1)))]))
    return family, functor, Ideal(domain, elem(1)), draw(st.integers(2, 7))


@given(scan_cases())
@settings(max_examples=60, deadline=None)
def test_scan_rows_match_fresh_evaluation(case):
    family, functor, depth_ideal, horizon = case
    res = scan_rows(family, functor, depth_ideal, horizon=horizon, window=2)
    assert [r.n for r in res.rows] == list(range(1, horizon + 1))
    for row in res.rows:
        fresh = functor(family.generate(row.n))
        assert (row.value.rank, row.value.factors, row.ass_set, row.depth_value) == \
            (fresh.rank, fresh.factors, ass(fresh), depth(depth_ideal, fresh))


def test_scan_horizon_window_validation():
    with pytest.raises(ValueError):
        scan_rows(QuotientPowers(R, I2), None, None, horizon=5, window=10)


class _BrokenFunctor:
    def __call__(self, n):
        return FpModule.free(n.domain, 1)  # ann drops to (0): violates the law

    def map(self, g):
        raise NotImplementedError


def test_ann_monotonicity_violation_detected():
    with pytest.raises(AnnihilatorViolation):
        scan_rows(QuotientPowers(R, I2), _BrokenFunctor(), None,
                  horizon=12, window=5)


def test_scan_tor1_value_sequence():
    res = scan_rows(QuotientPowers(R, I2), tor_functor(cyc(4), 1), None,
                    horizon=10, window=4)
    factors = [list(r.value.factors) for r in res.rows]
    assert factors[0] == [2]
    assert all(f == [4] for f in factors[1:])


def test_graded_layers_coherent_matches_independent_path():
    m = R.direct_sum(cyc(8))
    sub = Mat(ZZ, [[2], [0]])
    ideal = I2
    fam = GradedLayers(m, sub, ideal)
    functor = CoherentFunctor(Morphism(R, R, Mat(ZZ, [[2]])))
    for n in range(1, 21):
        via_family = functor(fam.generate(n))
        # independent path: abstract submodule I^n M first, then its quotient
        g_n = ideal.power_gen(n)
        s, incl = m.submodule(Mat.identity(ZZ, m.ambient).scale(g_n))
        carrier = Morphism(FpModule.free(ZZ, sub.cols), m, sub.scale(g_n))
        inside = factor_through_reference(carrier, incl)
        quotient = inside.target.quotient(inside.mat)
        direct = functor(quotient)
        assert iso_type(via_family) == iso_type(direct)


def test_kw_homology_validates_submodule_compatibility():
    zero = FpModule.zero(ZZ)
    alpha = Morphism(R, R, Mat(ZZ, [[1]]))
    beta = Morphism(R, zero, Mat.zero(ZZ, 0, 1))
    # alpha(L') = Z is not inside M' = 4Z
    with pytest.raises(ValueError):
        KwHomology(alpha, beta, Mat(ZZ, [[1]]), Mat(ZZ, [[4]]),
                   Mat.zero(ZZ, 0, 0), I2)


def test_artin_rees_examples():
    beta4 = Morphism(R, R, Mat(ZZ, [[4]]))
    assert artin_rees_probe(beta4, Mat(ZZ, [[1]]), I2, horizon=10) == 2
    ident = Morphism.identity(R)
    assert artin_rees_probe(ident, Mat(ZZ, [[1]]), I2, horizon=10) == 0
    zero = Morphism.zero_map(R, R)
    assert artin_rees_probe(zero, Mat(ZZ, [[1]]), I2, horizon=10) == 0


def test_artin_rees_d_minimality():
    # beta = *8, I = (2): 8Z meet 2^n Z = 2^max(3,n) Z, so d = 3.
    beta8 = Morphism(R, R, Mat(ZZ, [[8]]))
    assert artin_rees_probe(beta8, Mat(ZZ, [[1]]), I2, horizon=10) == 3


def test_artin_rees_inside_torsion_module():
    m = cyc(16)
    beta = Morphism(m, m, Mat(ZZ, [[4]]))
    d = artin_rees_probe(beta, Mat(ZZ, [[1]]), I2, horizon=10)
    assert d is not None and d <= 10


def test_artin_rees_poly():
    rp = FpModule.free(F2, 1)
    x = (0, 1)
    beta = Morphism(rp, rp, Mat(F2, [[F2.mul(x, x)]]))
    assert artin_rees_probe(beta, Mat(F2, [[F2.one]]), Ideal(F2, x), horizon=10) == 2


@st.composite
def artin_rees_cases(draw):
    """``(beta, N', I, horizon)``: ``beta`` a random map between random modules
    (free summands included) times a power of the generator of ``I``, so that
    several steps can fail; ``N'`` the whole target or up to two random
    generators of it; ``I`` zero, a unit, or an ideal on the primes of the
    modules or off them."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    rng = draw(st.randoms(use_true_random=False))
    if domain is ZZ:
        elems, near = st.integers(-8, 8), [2, -2, 3, 4, 6, 5]
    else:
        elems = st.lists(st.integers(0, domain.p - 1), max_size=3).map(domain.elem_from_json)
        near = [domain.elem_from_json(c) for c in ([0, 1], [1, 1], [0, 0, 1], [1, 0, 1])]
    gen = draw(st.sampled_from([domain.zero, domain.one] + near))
    beta = random_morphism(random_module(domain, rng, max_rank=2),
                           random_module(domain, rng, max_rank=2), rng)
    beta = Morphism(beta.source, beta.target,
                    beta.mat.scale(domain.pow(gen, draw(st.integers(0, 3)))))
    rows = beta.target.ambient
    if draw(st.booleans()):
        n_prime = Mat.identity(domain, rows)
    else:
        cols = draw(st.integers(0, 2))
        n_prime = Mat(domain, draw(st.lists(st.lists(elems, min_size=cols, max_size=cols),
                                            min_size=rows, max_size=rows)), rows, cols)
    return beta, n_prime, Ideal(domain, gen), draw(st.integers(0, 8))


@given(artin_rees_cases())
# beta = *8 on Z with I = (2) fails its first three steps (d = 3).
@example((Morphism(R, R, Mat(ZZ, [[8]])), Mat(ZZ, [[1]]), I2, 8))
@settings(max_examples=150, deadline=None)
def test_artin_rees_probe_matches_the_nested_loop(case):
    beta, n_prime, ideal, horizon = case
    assert artin_rees_probe(beta, n_prime, ideal, horizon) == \
        artin_rees_probe_reference(beta, n_prime, ideal, horizon)


# -- quotient and layer scans against their closed form --------------------------
# Over a PID every row of a quotient or layer scan through the identity,
# ``N -> cN`` (``times``), ``hom_from``, ``ext1``, ``tor1``, ``gamma``, ``tau``
# or a quotient by the last two is known in closed form (``oracles``), depth
# included, so the pruning, the entrywise solve, the divisibility
# containment, the Smith read-off and the depth read off each row's primes
# are checked against arithmetic that uses none of them.

HOM_FUNCTORS = {"hom_from": HomFrom, "ext1": lambda a: ext_functor(a, 1),
                "tor1": lambda a: tor_functor(a, 1)}


def closed_form_functor(D, kind, fixed):
    if kind == "identity":
        return IdentityFunctor()
    if kind == "times":
        # Presented by R -> R/(c), 1 -> 1, with R/(c) on one generator even
        # for a unit c.
        r = FpModule.free(D, 1)
        return CoherentFunctor(Morphism(r, FpModule.from_relations(D, [[fixed]]),
                                        Mat.identity(D, 1)))
    if kind in HOM_FUNCTORS:
        return HOM_FUNCTORS[kind](FpModule.from_invariants(D, *fixed))
    if kind in ("gamma", "mod_gamma"):
        return (GammaFunctor if kind == "gamma" else ModGamma)(Ideal(D, fixed))
    how, elems = fixed
    cmc = (CmcSet.explicit if how == "elements" else CmcSet.closure)(D, elems)
    return (TauFunctor if kind == "tau" else ModTau)(cmc)


def small_elems(D, nonzero=False):
    if D is ZZ:
        elems = st.integers(-12, 12)
    else:
        elems = st.lists(st.integers(0, D.p - 1), max_size=3).map(D.elem_from_json)
    return elems.filter(bool) if nonzero else elems


def check_against_closed_form(result, D, rank, factors, g, kind, fixed, j, layers=False,
                              graded=None):
    ns = [row.n for row in result.rows]
    expected, primes = quotient_scan_reference(D, rank, factors, g, ns, kind, fixed, j, layers,
                                               graded)
    got = []
    for row, (r, powers, ass_gens, depth_value) in zip(result.rows, expected):
        value = row.value
        orders = [D.zero] * value.rank + list(value.factors)
        assert elementary_divisors_over(D, orders, primes) == (r, powers), row.n
        assert {p.gen for p in row.ass_set.primes} == ass_gens, row.n
        assert row.depth_value == depth_value, row.n
        got.append(ass_gens)
    # The verdict's index is the start of the constant tail of Ass, when that
    # tail covers the window (a quotient by tau can have a transient).
    start = len(got) - 1
    while start and got[start - 1] == got[-1]:
        start -= 1
    report = result.ass_report
    if len(got) - start >= report.window:
        assert report.status == "stable" and report.n0 == ns[start]
    else:
        assert report.status != "stable"


@st.composite
def torsion_subsets(draw, D, kind):
    if kind in ("gamma", "mod_gamma"):
        return draw(small_elems(D))
    if draw(st.booleans()):
        return "closure", draw(st.lists(small_elems(D, nonzero=True), min_size=1, max_size=2))
    # A member divisible by every other one makes the set cmc.
    elems = draw(st.lists(small_elems(D), min_size=1, max_size=2))
    top = D.one
    for e in elems:
        top = D.mul(top, e)
    return "elements", elems + [D.mul(top, draw(small_elems(D, nonzero=True)))]


@st.composite
def quotient_scans(draw):
    D = draw(st.sampled_from([ZZ, F2, F5]))
    rank = draw(st.integers(0, 2))
    factors = draw(st.lists(small_elems(D, nonzero=True), max_size=2))
    k = len(factors) + rank
    rel = Mat.from_cols(D, [[d if i == t else D.zero for i in range(k)]
                            for t, d in enumerate(factors)], k)
    # The summand generators in the module's own generators.
    basis = Mat.identity(D, k)
    if k >= 2 and draw(st.booleans()):
        # A change of generators, so that the presentation is not diagonal.
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        mix = [[D.one if r == c else D.zero for c in range(k)] for r in range(k)]
        mix[i][j] = draw(small_elems(D, nonzero=True))
        basis = Mat(D, mix, k, k)
        rel = basis @ rel
    kind = draw(st.sampled_from(["identity", "times", *HOM_KINDS, *TORSION_KINDS]))
    if kind in TORSION_KINDS:
        fixed = draw(torsion_subsets(D, kind))
    elif kind == "times":
        fixed = draw(small_elems(D, nonzero=True))
    else:
        fixed = (draw(st.integers(0, 1)),
                 draw(st.lists(small_elems(D, nonzero=True), max_size=2)))
    g = draw(small_elems(D))
    j = draw(st.one_of(st.just(D.zero), st.just(D.one), st.just(g), small_elems(D)))
    return (D, rank, factors, FpModule(D, k, rel), g, kind, fixed, j,
            draw(st.integers(2, 60)), basis)


@given(quotient_scans())
@settings(max_examples=80, deadline=None)
def test_quotient_scans_match_the_closed_form(case):
    D, rank, factors, module, g, kind, fixed, j, horizon, _ = case
    functor = closed_form_functor(D, kind, fixed)
    result = scan_rows(QuotientPowers(module, Ideal(D, g)), functor, Ideal(D, j), horizon, 2)
    check_against_closed_form(result, D, rank, factors, g, kind, fixed, j)


@given(quotient_scans())
@settings(max_examples=80, deadline=None)
def test_layer_scans_match_the_closed_form(case):
    D, rank, factors, module, g, kind, fixed, j, horizon, _ = case
    functor = closed_form_functor(D, kind, fixed)
    result = scan_rows(Layers(module, Ideal(D, g)), functor, Ideal(D, j), horizon, 2)
    check_against_closed_form(result, D, rank, factors, g, kind, fixed, j, layers=True)


@st.composite
def graded_scans(draw):
    case = draw(quotient_scans())
    D, basis = case[0], case[-1]
    # M' = (+) m_i e_i on the summand generators e_i; a zero m_i on a free
    # summand leaves a zero row, which the monomial preimage skips.
    ms = draw(st.lists(st.just(D.zero) | small_elems(D), min_size=basis.cols,
                       max_size=basis.cols))
    return case, ms


@given(graded_scans())
@example(((ZZ, 2, [], FpModule.free(ZZ, 2), 2, "identity", (0, ()), 2, 4, Mat.identity(ZZ, 2)),
          [0, 3]))
@settings(max_examples=80, deadline=None)
def test_graded_layer_scans_match_the_closed_form(graded_case):
    (D, rank, factors, module, g, kind, fixed, j, horizon, basis), ms = graded_case
    sub = basis @ Mat(D, [[m if r == c else D.zero for c, m in enumerate(ms)]
                          for r in range(basis.cols)], basis.cols, basis.cols)
    functor = closed_form_functor(D, kind, fixed)
    result = scan_rows(GradedLayers(module, sub, Ideal(D, g)), functor, Ideal(D, j), horizon, 2)
    check_against_closed_form(result, D, rank, factors, g, kind, fixed, j,
                              graded=ms[len(factors):] + ms[:len(factors)])


# -- coherent transients -----------------------------------------------------------
# Through ``N -> cN`` a prime p of g enters Ass of the value at M/g^n M only
# once ``n v_p(g)`` passes ``v_p(c)``, so the verdicts start late.

def test_coherent_transient_is_stable_from_n_four():
    # F(N) = N/N[8] = 8N; on M/6^n M with M = Z (+) Z/9 the value is
    # Z/(6^n / gcd(6^n, 8)) (+) Z/(gcd(9, 6^n) / gcd(9, 6^n, 8)), which gains
    # the prime 2 at n = 4.
    functor = CoherentFunctor(Morphism(R, cyc(8), Mat(ZZ, [[1]])))
    m = R.direct_sum(cyc(9))
    res = scan_rows(QuotientPowers(m, Ideal(ZZ, 6)), functor, I2, horizon=20, window=10)
    assert [row.value.factors for row in res.rows[:4]] == [(3, 3), (9, 9), (9, 27), (9, 162)]
    for row in res.rows:
        assert row.value.rank == 0
        assert row.ass_set == (_ass_of(3) if row.n <= 3 else _ass_of(2, 3)), row.n
        assert row.depth_value == (DEPTH_INF if row.n <= 3 else 0), row.n
    assert (res.ass_report.status, res.ass_report.n0) == ("stable", 4)
    assert (res.depth_report.status, res.depth_report.n0) == ("stable", 4)
    # Each layer 6^(n-1) M / 6^n M holds Z/6, whose 8-multiple Z/3 has no 2.
    layers = scan_rows(Layers(m, Ideal(ZZ, 6)), functor, I2, horizon=20, window=10)
    assert (layers.ass_report.status, layers.ass_report.n0) == ("stable", 1)


@st.composite
def transient_scans(draw):
    """``(D, rank, factors, module, g, c, j, horizon)``: elements are products
    of pool primes, and ``c`` is ``g^k`` times at most one more, so ``g^n``
    often outgrows it only after a few rows."""
    D = draw(st.sampled_from([ZZ, F2, F5]))
    pool = st.sampled_from(PRIMES[D])

    def elem(min_primes, max_primes):
        e = D.one
        for p in draw(st.lists(pool, min_size=min_primes, max_size=max_primes)):
            e = D.mul(e, p)
        return e

    rank = draw(st.integers(0, 1))
    factors = [elem(1, 4) for _ in range(draw(st.integers(0 if rank else 1, 2)))]
    module = FpModule.from_invariants(D, rank, factors)
    g = elem(1, 2)
    c = D.mul(D.pow(g, draw(st.integers(0, 3))), elem(0, 1))
    return D, rank, factors, module, g, c, draw(pool), draw(st.integers(6, 12))


@given(transient_scans())
@settings(max_examples=60, deadline=None)
def test_coherent_transients_match_the_closed_form(case):
    D, rank, factors, module, g, c, j, horizon = case
    functor = closed_form_functor(D, "times", c)
    result = scan_rows(QuotientPowers(module, Ideal(D, g)), functor, Ideal(D, j), horizon, 3)
    check_against_closed_form(result, D, rank, factors, g, "times", c, j)


QUOTIENT_SCENARIOS = ("brodmann_int_quotient", "brodmann_int_quotient_mixed",
                      "brodmann_poly2_quotient", "brodmann_poly5_quotient",
                      "coh_int_hom_quotient", "coh_int_ext1_quotient",
                      "coh_int_tor1_quotient", "gammatau_int_gamma_quotient",
                      "gammatau_int_mod_gamma_quotient", "gammatau_int_tau_quotient",
                      "gammatau_int_mod_tau_quotient")


LAYER_SCENARIOS = ("brodmann_int_layers", "brodmann_poly2_layers")


GRADED_SCENARIOS = ("brodmann_int_graded", "brodmann_poly2_graded")


def check_packaged_scenarios(names):
    docs = {name[:-len(".json")]: json.loads(text) for name, text in _iter_packaged_scenarios()}
    for name in names:
        doc = docs[name]
        sc = parse_scenario(doc)
        D = sc.domain
        m = doc["modules"][doc["family"]["module"]]
        factors = [D.elem_from_json(d) for d in m["factors"]]
        ideals = {key: D.elem_from_json(gen) for key, gen in doc["ideals"].items()}
        g, j = ideals[doc["family"]["ideal"]], ideals[doc["depth_ideal"]]
        functor = doc["functor"]
        kind = functor["kind"]
        if kind in ("gamma", "mod_gamma"):
            fixed = ideals[functor["ideal"]]
        elif kind in ("tau", "mod_tau"):
            (how, elems), = functor["set"].items()
            fixed = (how, [D.elem_from_json(e) for e in elems])
        elif kind != "identity":
            a = doc["modules"][functor["module"]]
            fixed = (a["rank"], [D.elem_from_json(d) for d in a["factors"]])
        else:
            fixed = (0, ())
        graded = None
        if doc["family"]["kind"] == "graded_layers":
            # A diagonal M' on the generators of from_invariants, torsion first.
            sub = [[D.elem_from_json(a) for a in row]
                   for row in doc["submodules"][doc["family"]["submodule"]]]
            assert all(not a for r, row in enumerate(sub) for c, a in enumerate(row) if r != c)
            ms = [row[r] for r, row in enumerate(sub)]
            graded = ms[len(factors):] + ms[:len(factors)]
        outcome = run_scenario(sc)
        assert len(outcome.result.rows) == sc.horizon, name
        check_against_closed_form(outcome.result, D, m["rank"], factors, g, kind, fixed, j,
                                  layers=doc["family"]["kind"] == "layers", graded=graded)


def test_packaged_quotient_scenarios_match_the_closed_form():
    check_packaged_scenarios(QUOTIENT_SCENARIOS)


def test_packaged_layer_scenarios_match_the_closed_form():
    check_packaged_scenarios(LAYER_SCENARIOS)


def test_packaged_graded_scenarios_match_the_closed_form():
    check_packaged_scenarios(GRADED_SCENARIOS)
