"""Acceptance gate: one test per criterion, each printing a PASS line.

Bounds (counts, sizes, runtimes, tolerances) are pinned here and are exact:
every comparison is exact arithmetic; runtime limits are wall-clock.
"""

import json
import random
import time

from stab.domains import ZZ, poly_ring
from stab.matrices import Mat
from stab.modules import FpModule, Morphism, Ideal, HomSpace
from stab.invariants import (ass, ann, gamma, tau, CmcSet, AssSet,
                             ann_contains)
from stab.functors import (OscillatingFunctor, ExponentSet, GammaFunctor, ModGamma,
                           ModTau, gamma_as_middle_finite, ext_functor, tor_functor)
from stab.laws import check_functor_laws, random_torsion_module
from stab.scan import artin_rees_probe
from stab.scenario import parse_scenario, run_scenario
from stab.cli import _iter_packaged_scenarios
from oracles import (ass_oracle, cyclic_hom_oracle, cyclic_ext_oracle, invariant_counts,
                     iso_type)

F2 = poly_ring(2)
R = FpModule.free(ZZ, 1)


def cyc(*ds):
    return FpModule.from_invariants(ZZ, 0, list(ds))


def _run_group(prefix, horizon=None, window=None):
    outcomes = []
    for name, text in _iter_packaged_scenarios():
        if not name.startswith(prefix):
            continue
        sc = parse_scenario(json.loads(text))
        outcomes.append((name, sc, run_scenario(sc, horizon, window)))
    return outcomes


COLLECTED_ARTIN = {}
COLLECTED_ANN_CHECKS = {"total": 0}


def _random_unimodular(rng, n, steps=6):
    m = Mat.identity(ZZ, n)
    data = [list(r) for r in m.data]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            data[i][k] += q * data[j][k]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        data[i], data[j] = data[j], data[i]
    return Mat(ZZ, data)


def test_criterion_01_normal_form_soundness():
    start = time.monotonic()
    rng = random.Random(20240501)
    for trial in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = Mat(ZZ, [[rng.randint(-100, 100) for _ in range(cols)]
                     for _ in range(rows)])
        d, u, v = a.snf()
        assert (u @ a @ v) == d
        diag = [x for x in d.diagonal() if x != 0]
        assert all(x > 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        # invariance under unimodular pre/post-composition
        left = _random_unimodular(rng, rows)
        right = _random_unimodular(rng, cols)
        d2, _, _ = (left @ a @ right).snf()
        assert d2.diagonal() == d.diagonal()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"normal-form soundness took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1: PASS normal-form soundness, 1000 matrices, "
          f"{elapsed:.1f}s")


def test_criterion_02_hom_tor_ext_oracle_equivalence():
    for a in range(1, 31):
        for b in range(1, 31):
            ma, mb = cyc(a), cyc(b)
            h = HomSpace(ma, mb).module
            t = tor_functor(ma, 1)(mb)
            e = ext_functor(ma, 1)(mb)
            g = ZZ.gcd(a, b)
            want = [] if g == 1 else [g]
            assert list(h.factors) == want and h.rank == 0
            assert list(t.factors) == want and t.rank == 0
            assert list(e.factors) == want and e.rank == 0
            assert invariant_counts(ZZ, h.factors, [])[0] == cyclic_hom_oracle(a, b)
            assert invariant_counts(ZZ, t.factors, [])[0] == cyclic_hom_oracle(a, b)
            assert invariant_counts(ZZ, e.factors, [])[0] == cyclic_ext_oracle(a, b)
    print("ACCEPTANCE 2: PASS hom/tor1/ext1 match enumeration on all "
          "900 cyclic pairs up to 30")


def _int_corpus(limit=200):
    chains = []
    for d1 in range(2, limit + 1):
        chains.append([d1])
        for d2 in range(d1, limit + 1, d1):
            if d1 * d2 > limit:
                break
            chains.append([d1, d2])
            for d3 in range(d2, limit + 1, d2):
                if d1 * d2 * d3 > limit:
                    break
                chains.append([d1, d2, d3])
    return chains


def _poly_corpus(limit=200):
    # canonical chains d1 | d2 over GF(2) with at most `limit` elements
    polys = []
    for bits in range(2, 16):
        coeffs = [(bits >> i) & 1 for i in range(bits.bit_length())]
        p = F2.elem_from_json(coeffs)
        if len(p) >= 2:
            polys.append(p)
    chains = [[p] for p in polys]
    for p in polys:
        for q in polys:
            if F2.divides(p, q) and 2 ** (len(p) + len(q) - 2) <= limit:
                chains.append([p, q])
    return chains


def test_criterion_03_ass_oracle():
    count = 0
    for chain in _int_corpus():
        m = FpModule.from_invariants(ZZ, 0, chain)
        assert {p.gen for p in ass(m)} == ass_oracle(ZZ, chain)
        count += 1
    for chain in _poly_corpus():
        m = FpModule.from_invariants(F2, 0, chain)
        assert {p.gen for p in ass(m)} == ass_oracle(F2, list(m.factors))
        count += 1
    print(f"ACCEPTANCE 3: PASS associated primes match the element-annihilator "
          f"oracle on {count} finite modules of order <= 200")


def _assert_group_stable(outcomes, n0_max=30):
    for name, sc, out in outcomes:
        assert out.expect_ok, (name, out.expect_failures)
        rep = out.result.ass_report
        assert rep.status == "stable", name
        assert rep.n0 is not None and rep.n0 <= n0_max, name
        dep = out.result.depth_report
        assert dep is not None and dep.status == "stable", name
        COLLECTED_ARTIN[name] = out.artin_d
        COLLECTED_ANN_CHECKS["total"] += len(out.result.rows)


def test_criterion_04_brodmann_suite():
    start = time.monotonic()
    outcomes = _run_group("brodmann_")
    elapsed = time.monotonic() - start
    assert len(outcomes) >= 12
    backends = {sc.domain.kind for _, sc, _ in outcomes}
    assert backends == {"integers", "poly"}
    _assert_group_stable(outcomes)
    for _, sc, out in outcomes:
        assert out.horizon == 50 and out.window == 10
    assert elapsed < 60.0, f"Brodmann suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4: PASS {len(outcomes)} identity-functor scenarios "
          f"stable over both backends in {elapsed:.1f}s")


def test_criterion_05_coherent_suite():
    outcomes = _run_group("coh_")
    kinds = [json.loads(text)["functor"]["kind"] for name, text in _iter_packaged_scenarios()
             if name.startswith("coh_")]
    assert {"tor1", "ext1", "hom_from", "coherent"} <= set(kinds)
    assert kinds.count("coherent") >= 3
    _assert_group_stable(outcomes)
    print(f"ACCEPTANCE 5: PASS {len(outcomes)} coherent-functor scenarios "
          f"stable for ass and depth")


def test_criterion_06_section3_formulas():
    rng = random.Random(31)
    for _ in range(300):
        rank = rng.randint(0, 1)
        factors = [rng.choice([2, 3, 4, 6, 8, 9, 12, 18, 5])
                   for _ in range(rng.randint(0, 3))]
        m = FpModule.free(ZZ, rank).direct_sum(cyc(*factors))
        g = rng.choice([0, 1, 2, 3, 5, 6, 12])
        ideal = Ideal(ZZ, g)
        a = ass(m)
        # Ass Gamma_I(M) = Ass M meet V(I) and Ass M/Gamma_I(M) = Ass M \ V(I).
        assert ass(gamma(ideal, m)[0]) == AssSet([p for p in a if p.contains(g)])
        assert ass(ModGamma(ideal)(m)) == AssSet([p for p in a if not p.contains(g)])
        gens = [rng.choice([2, 3, 5, 6]) for _ in range(rng.randint(1, 2))]
        s = CmcSet.closure(ZZ, gens)
        # The primes that meet S: those holding one of its nonzero generators.
        meets = AssSet([p for p in a if any(p.contains(c) for c in gens)])
        avoids = AssSet([p for p in a if not any(p.contains(c) for c in gens)])
        assert ass(tau(s, m)[0]) == meets
        assert ass(ModTau(s)(m)) == avoids
    # pinned regression: S = {2}, M = Z/4; (2) meets S but survives the quotient
    pinned = CmcSet.explicit(ZZ, [2])
    assert ass(ModTau(pinned)(cyc(4))) == AssSet([Ideal(ZZ, 2)])
    assert iso_type(tau(pinned, cyc(4))[0]) == (0, [2])
    print("ACCEPTANCE 6: PASS torsion-part prime formulas on 300 random "
          "triples plus the pinned quotient counterexample")


def test_criterion_07_oscillating():
    rng = random.Random(47)
    for prime, pool in ((2, [2, 4, 8]), (3, [3, 9, 27])):
        osc = OscillatingFunctor(
            ZZ, {prime: ExponentSet(members=[1], progressions=[(2, 2)])})
        failures = check_functor_laws(osc, ZZ, rng, trials=200,
                                      torsion_only=True, module_pool=pool)
        assert failures == [], failures[:3]
    outcomes = _run_group("osc_")
    # The three prescribed patterns, and period 2 after a transient.
    assert len(outcomes) == 4
    statuses = {out.result.ass_report.status for _, _, out in outcomes}
    assert statuses == {"oscillating-with-period-2", "oscillating-with-period-3",
                        "stable"}
    for name, sc, out in outcomes:
        assert out.expect_ok, (name, out.expect_failures)
        assert out.horizon == 40
        COLLECTED_ARTIN[name] = out.artin_d
        COLLECTED_ANN_CHECKS["total"] += len(out.result.rows)
    print("ACCEPTANCE 7: PASS oscillating functor laws (200 morphism pairs "
          "per prime) and all four packaged scan patterns at horizon 40")


def test_criterion_08_middle_finite():
    rng = random.Random(53)
    for g in (2, 3, 6):
        mf = gamma_as_middle_finite(Ideal(ZZ, g))
        gf = GammaFunctor(Ideal(ZZ, g))
        for _ in range(40):
            n = random_torsion_module(ZZ, rng)
            assert iso_type(mf(n)) == iso_type(gf(n))
    x = (0, 1)
    mfp = gamma_as_middle_finite(Ideal(F2, x))
    gfp = GammaFunctor(Ideal(F2, x))
    for _ in range(20):
        n = random_torsion_module(F2, rng)
        assert iso_type(mfp(n)) == iso_type(gfp(n))
    outcomes = _run_group("midfin_")
    assert any(sc.domain.kind == "integers" for _, sc, _ in outcomes)
    _assert_group_stable(outcomes)
    print("ACCEPTANCE 8: PASS localized-complex homology equals the torsion "
          "part on 140 random torsion modules; middle-finite scenarios stable")


def test_criterion_09_artin_rees():
    beta4 = Morphism(R, R, Mat(ZZ, [[4]]))
    d = artin_rees_probe(beta4, Mat(ZZ, [[1]]), Ideal(ZZ, 2), horizon=10)
    assert d == 2
    # the gamma/tau scenario group also contributes probes
    for name, sc, out in _run_group("gammatau_"):
        assert out.expect_ok, (name, out.expect_failures)
        COLLECTED_ARTIN[name] = out.artin_d
        COLLECTED_ANN_CHECKS["total"] += len(out.result.rows)
    assert COLLECTED_ARTIN, "scenario groups must run before this test"
    for name, dd in COLLECTED_ARTIN.items():
        assert dd is not None and dd <= 10, (name, dd)
    print(f"ACCEPTANCE 9: PASS pinned probe d=2 and d <= 10 on all "
          f"{len(COLLECTED_ARTIN)} suite scenarios")


def test_criterion_10_annihilator_monotonicity_global():
    # Scans in criteria 4-9 ran with the annihilator check enabled; a single
    # violation would have raised and failed those tests.
    assert COLLECTED_ANN_CHECKS["total"] >= 1000
    rng = random.Random(61)
    checked = 0
    for functor in (ext_functor(cyc(4), 1), tor_functor(cyc(6), 1),
                    GammaFunctor(Ideal(ZZ, 2)), gamma_as_middle_finite(Ideal(ZZ, 2)),
                    OscillatingFunctor(ZZ, {2: ExponentSet(members=[1, 2])})):
        for _ in range(20):
            n = random_torsion_module(ZZ, rng)
            assert ann_contains(ann(n), ann(functor(n)))
            checked += 1
    print(f"ACCEPTANCE 10: PASS annihilator monotonicity on "
          f"{COLLECTED_ANN_CHECKS['total']} scan evaluations plus {checked} "
          f"direct spot checks")
