import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stab.domains import ZZ, poly_ring
from stab.matrices import Mat
from stab.modules import FpModule, Ideal
from stab.invariants import (AssSet, CmcSet, DEPTH_INF,
                             ass, ann, depth, gamma, tau, NotCmc, ann_contains)
from stab.functors import ModGamma, ModTau
from oracles import (ass_oracle, ass_reference, is_cmc_reference, EnumeratedModule,
                     invariant_counts, iso_type)

F2 = poly_ring(2)
F5 = poly_ring(5)
R = FpModule.free(ZZ, 1)


def cyc(*ds):
    return FpModule.from_invariants(ZZ, 0, list(ds))


def prime_set(*ps):
    return AssSet([Ideal(ZZ, p) for p in ps])


def test_ass_set_order_and_json_with_zero_ideal():
    a = ass(cyc(5, 30).direct_sum(R))
    assert list(a) == [Ideal(ZZ, 0), Ideal(ZZ, 2), Ideal(ZZ, 3), Ideal(ZZ, 5)]
    assert a.to_json() == ["(0)", "(2)", "(3)", "(5)"]
    assert repr(a) == "{(0), (2), (3), (5)}"
    # Construction sorts and drops repeats; the zero ideal lies in V((0)) only.
    assert AssSet([Ideal(ZZ, 5), Ideal(ZZ, -3), Ideal(ZZ, 0), Ideal(ZZ, 2), Ideal(ZZ, 5)]) == a
    assert AssSet([p for p in a if p.contains(0)]) == a
    assert AssSet([p for p in a if not p.contains(6)]).to_json() == ["(0)", "(5)"]
    x = (0, 1)
    m = FpModule.free(F2, 1).direct_sum(FpModule.cyclic(F2, F2.mul(x, (1, 1))))
    assert ass(m).to_json() == ["(0)", "(x)", "(x+1)"]


def test_ass_examples():
    assert ass(R.direct_sum(cyc(12))) == prime_set(0, 2, 3)
    assert ass(FpModule.zero(ZZ)) == AssSet([])
    assert ass(cyc(4)) == prime_set(2)


def test_ass_matches_enumeration_oracle():
    rng = random.Random(2)
    for _ in range(60):
        factors = []
        prod = 1
        for _ in range(rng.randint(0, 3)):
            d = rng.choice([2, 3, 4, 5, 6, 8, 9, 12])
            if prod * d > 200:
                break
            factors.append(d)
            prod *= d
        m = cyc(*factors) if factors else FpModule.zero(ZZ)
        want = ass_oracle(ZZ, factors)
        got = {p.gen for p in ass(m)}
        assert got == want


def test_ass_oracle_poly_backend():
    x, x1 = (0, 1), (1, 1)
    cases = [[x], [F2.mul(x, x)], [F2.mul(x, x1)], [(1, 1, 1)],
             [F2.mul(F2.mul(x, x), x1), x]]
    for factors in cases:
        m = FpModule.from_invariants(F2, 0, factors)
        chain = list(m.factors)
        assert {p.gen for p in ass(m)} == ass_oracle(F2, chain)


# Primes (some of them non-canonical associates) of each backend.
PRIME_POOLS = {ZZ: [2, 3, -5, 7],
               F2: [(0, 1), (1, 1), (1, 1, 1)],
               F5: [(0, 1), (2, 1), (4, 2), (2, 0, 1)]}


@st.composite
def quotient_chains(draw):
    """``(domain, rank, quotients)``: each quotient a product of 0 to 3 pool
    primes, repeats allowed, so some quotients are units."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    pool = st.sampled_from(PRIME_POOLS[domain])
    quotients = []
    for primes in draw(st.lists(st.lists(pool, max_size=3), max_size=4)):
        q = domain.one
        for p in primes:
            q = domain.mul(q, p)
        quotients.append(q)
    return domain, draw(st.integers(0, 2)), quotients


@given(quotient_chains())
@settings(max_examples=200, deadline=None)
def test_ass_factors_only_the_successive_quotients(chain):
    domain, rank, quotients = chain
    factors, d = [], domain.one
    for q in quotients:
        d = domain.mul(d, q)
        factors.append(d)
    m = FpModule.from_invariants(domain, rank, factors)
    expected = ass_reference(m)
    factored = []
    real = type(domain).factor
    with mock.patch.object(type(domain), "factor",
                           lambda self, a: factored.append(a) or real(self, a)):
        got = ass(m)
    assert got == expected
    canon = [domain.canon(q)[0] for q in quotients]
    assert factored == [q for q in canon if not domain.is_unit(q)]


def test_ann_examples():
    assert ann(cyc(12).direct_sum(cyc(2))).gen == 12
    assert ann(R).gen == 0
    assert ann(FpModule.zero(ZZ)).gen == 1


def test_ann_contains():
    assert ann_contains(Ideal(ZZ, 0), Ideal(ZZ, 2))
    assert ann_contains(Ideal(ZZ, 12), Ideal(ZZ, 4))
    assert not ann_contains(Ideal(ZZ, 2), Ideal(ZZ, 4))


def test_depth_examples():
    assert depth(Ideal(ZZ, 3), cyc(2)) == DEPTH_INF
    assert depth(Ideal(ZZ, 6), R.direct_sum(cyc(2))) == 0
    assert depth(Ideal(ZZ, 2), R) == 1
    assert depth(Ideal(ZZ, 1), FpModule.zero(ZZ)) == DEPTH_INF
    assert depth(Ideal(ZZ, 0), FpModule.zero(ZZ)) == DEPTH_INF
    assert depth(Ideal(ZZ, 0), R) == 0


def test_depth_zero_iff_zerodivisor_on_nonexhausted():
    rng = random.Random(3)
    for _ in range(60):
        m = FpModule.free(ZZ, rng.randint(0, 1)).direct_sum(
            cyc(*[rng.choice([2, 3, 4, 9]) for _ in range(rng.randint(0, 2))]))
        g = rng.choice([0, 1, 2, 3, 5, 6])
        j = Ideal(ZZ, g)
        d = depth(j, m)
        exhausts = iso_type(m.power_quotient(j, 1)) == (0, [])
        zerodiv = any(p.contains(g) for p in ass(m))
        if exhausts:
            assert d == DEPTH_INF
        elif zerodiv:
            assert d == 0
        else:
            assert d == 1


def depth_reference(j, m):
    """Depth by its definition: exhaustion via M/JM, then a zero-divisor test."""
    if iso_type(m.power_quotient(j, 1)) == (0, []):
        return DEPTH_INF
    if any(p.contains(j.gen) for p in ass(m)):
        return 0
    return 1


@st.composite
def depth_cases(draw):
    domain = draw(st.sampled_from([ZZ, F2, poly_ring(5)]))
    if domain is ZZ:
        elems = st.integers(-40, 40)
    else:
        elems = st.lists(st.integers(0, domain.p - 1), max_size=4).map(
            domain.elem_from_json)
    nonzero = elems.filter(lambda e: not domain.is_zero(e))
    rank = draw(st.integers(0, 2))
    factors = draw(st.lists(nonzero, max_size=3))
    # The zero and unit ideals are drawn explicitly, besides random generators.
    gen = draw(st.one_of(st.just(domain.zero), st.just(domain.one), elems))
    return Ideal(domain, gen), FpModule.from_invariants(domain, rank, factors)


@given(depth_cases())
@settings(max_examples=300, deadline=None)
def test_depth_matches_definition(case):
    j, m = case
    assert depth(j, m) == depth_reference(j, m)


def test_depth_definition_edge_cases():
    x = (0, 1)
    for domain, g in [(ZZ, 6), (F2, F2.mul(x, x)), (poly_ring(5), (1, 1))]:
        zero, unit, gen = Ideal(domain, domain.zero), Ideal(domain, domain.one), Ideal(domain, g)
        free = FpModule.free(domain, 2)
        torsion = FpModule.from_invariants(domain, 0, [g])
        mixed = FpModule.from_invariants(domain, 1, [g])
        for j in (zero, unit, gen):
            for m in (FpModule.zero(domain), free, torsion, mixed):
                assert depth(j, m) == depth_reference(j, m)


def test_gamma_examples():
    assert iso_type(gamma(Ideal(ZZ, 2), cyc(12))[0]) == (0, [4])
    assert iso_type(ModGamma(Ideal(ZZ, 2))(cyc(12))) == (0, [3])
    assert iso_type(gamma(Ideal(ZZ, 0), cyc(12))[0]) == iso_type(cyc(12))
    assert iso_type(ModGamma(Ideal(ZZ, 0))(cyc(12))) == (0, [])
    mixed = R.direct_sum(cyc(12))
    assert iso_type(gamma(Ideal(ZZ, 2), mixed)[0]) == (0, [4])
    assert iso_type(ModGamma(Ideal(ZZ, 2))(mixed)) == (1, [3])
    # unit ideal: no prime contains it, so the torsion part is zero
    assert iso_type(gamma(Ideal(ZZ, 1), cyc(12))[0]) == (0, [])
    assert iso_type(gamma(Ideal(ZZ, 2), R)[0]) == (0, [])


def test_gamma_inclusion_and_projection_compose():
    # The quotient kills the part: the inclusion's columns are zero in it.
    m = R.direct_sum(cyc(12))
    _, include = gamma(Ideal(ZZ, 2), m)
    assert ModGamma(Ideal(ZZ, 2))(m).contains(include.mat)


def random_module(rng):
    rank = rng.randint(0, 1)
    factors = [rng.choice([2, 3, 4, 6, 8, 9, 12, 18]) for _ in range(rng.randint(0, 3))]
    return FpModule.free(ZZ, rank).direct_sum(cyc(*factors))


def test_gamma_ass_formulas_randomized():
    rng = random.Random(5)
    for _ in range(300):
        m = random_module(rng)
        g = rng.choice([0, 1, 2, 3, 6, 12, 5])
        ideal = Ideal(ZZ, g)
        a = ass(m)
        # Ass Gamma_I(M) = Ass M meet V(I) and Ass M/Gamma_I(M) = Ass M \ V(I).
        assert ass(gamma(ideal, m)[0]) == AssSet([p for p in a if p.contains(g)])
        assert ass(ModGamma(ideal)(m)) == AssSet([p for p in a if not p.contains(g)])


def test_cmc_examples():
    assert not CmcSet.explicit(ZZ, [4, 6]).is_cmc()
    s = CmcSet.explicit(ZZ, [2, 4])
    assert s.is_cmc() and s.cogenerator() == 4
    closure = CmcSet.closure(ZZ, [2])
    assert closure.is_cmc()
    assert closure.cogenerator() is None


def closed_under_products(s):
    return all(r * t in s.elems for r in s.elems for t in s.elems)


def test_cmc_power_truncation():
    # Truncation of {a^2} + {a^(8+12k)} at a = 2: cmc and not multiplicatively
    # closed; being finite and cmc it has a cogenerator (the top power).
    s = CmcSet.explicit(ZZ, [4, 2**8, 2**20])
    assert s.is_cmc()
    assert not closed_under_products(s)
    assert s.cogenerator() == 2**20


def test_singleton_and_pair_cmc():
    assert CmcSet.explicit(ZZ, [7]).is_cmc()
    # (s) strictly inside (r): {r, s} is cmc and coprincipal, not mult. closed
    s = CmcSet.explicit(ZZ, [3, 12])
    assert s.is_cmc() and s.cogenerator() == 12 and not closed_under_products(s)


# Small members with zero and units among them, as JSON coefficients over
# GF(p)[x]; many pairs share primes, so cmc and non-cmc sets both come up.
CMC_POOLS = [
    (ZZ, [0, 1, -1, 2, -2, 3, 4, 6, 8, 12]),
    (F2, [[], [1], [0, 1], [1, 1], [0, 0, 1], [0, 1, 1], [0, 0, 1, 1]]),
    (F5, [[], [1], [2], [0, 1], [0, 2], [2, 1], [0, 2, 1], [0, 0, 1], [0, 0, 3]]),
]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_is_cmc_agrees_with_the_pairwise_loop(data):
    D, pool = data.draw(st.sampled_from(CMC_POOLS))
    elems = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    s = CmcSet.explicit(D, [D.elem_from_json(e) for e in elems])
    assert s.is_cmc() == is_cmc_reference(s)
    if s.is_cmc():
        assert all(D.divides(r, s.cogenerator()) for r in s.elems)


def test_tau_examples():
    s = CmcSet.explicit(ZZ, [2])
    assert iso_type(tau(s, cyc(4))[0]) == (0, [2])
    quotient = ModTau(s)(cyc(4))
    assert iso_type(quotient) == (0, [2])
    assert ass(quotient) == prime_set(2)  # pinned: (2) meets S yet survives

    # a singleton unit kills nothing
    assert iso_type(tau(CmcSet.explicit(ZZ, [1]), cyc(4))[0]) == (0, [])
    # a unit in S does not flatten tau: {1, 2} still catches 2-torsion
    assert iso_type(tau(CmcSet.explicit(ZZ, [1, 2]), cyc(4))[0]) == (0, [2])

    closure = CmcSet.closure(ZZ, [2])
    part = tau(closure, cyc(12))[0]
    assert iso_type(part) == (0, [4])
    assert iso_type(part) == iso_type(gamma(Ideal(ZZ, 2), cyc(12))[0])


def test_tau_matches_union_definition_on_finite_modules():
    rng = random.Random(11)
    for _ in range(80):
        factors = [rng.choice([2, 3, 4, 6, 9]) for _ in range(rng.randint(1, 2))]
        m = cyc(*factors)
        elems = [rng.choice([1, 2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(1, 3))]
        s = CmcSet.explicit(ZZ, elems)
        if not s.is_cmc():
            continue
        part, _ = tau(s, m)
        enum = EnumeratedModule(m, math.lcm(*factors))
        killed = len(enum.killed(elems)) // len(enum.zero_set)
        assert part.rank == 0
        assert invariant_counts(ZZ, part.factors, [])[0] == killed


def test_tau_rejects_non_cmc():
    with pytest.raises(NotCmc):
        tau(CmcSet.explicit(ZZ, [4, 6]), cyc(12))


def test_tau_ass_formulas_for_multiplicative_sets():
    rng = random.Random(6)
    for _ in range(150):
        m = random_module(rng)
        gens = [rng.choice([2, 3, 5, 6]) for _ in range(rng.randint(1, 2))]
        s = CmcSet.closure(ZZ, gens)
        a = ass(m)
        # The primes that meet S: those holding one of its nonzero generators.
        meets = AssSet([p for p in a if any(p.contains(c) for c in gens)])
        avoid = AssSet([p for p in a if not any(p.contains(c) for c in gens)])
        assert ass(tau(s, m)[0]) == meets
        assert ass(ModTau(s)(m)) == avoid


def test_tau_first_formula_for_merely_cmc_sets():
    rng = random.Random(7)
    for _ in range(100):
        m = random_module(rng)
        base = rng.choice([2, 3, 6])
        s = CmcSet.explicit(ZZ, [base, base**2])
        a = ass(m)
        meets = AssSet([p for p in a if any(p.contains(c) for c in s.elems)])
        assert ass(tau(s, m)[0]) == meets
        # second formula intentionally NOT asserted for non-multiplicative sets


# -- Gamma and tau by enumeration ----------------------------------------------
# Small finite modules over Z and GF(2)[x], built from an exponent ``e`` that
# the strategy knows, so that the box ``(R/e)^k`` has at most 2^10 vectors.
# The oracle counts the elements that the killers of ``Gamma`` and ``tau``
# send into the relations, and the elements that each power of each prime of
# ``e`` kills in the part and in the quotient; these counts fix each one's
# isomorphism type, and must be the counts read off the invariant factors.

ENUM_PRIMES = {ZZ: (2, 3, 5), F2: ((0, 1), (1, 1), (1, 1, 1))}
ENUM_OTHER = {ZZ: 7, F2: (1, 1, 0, 1)}  # a prime that divides no ``e``


def _norm(D, a):
    return abs(a) if D is ZZ else 2 ** (len(a) - 1)


def _product(D, elems):
    out = D.one
    for a in elems:
        out = D.mul(out, a)
    return out


@st.composite
def enumerable_cases(draw):
    """``(M, e, prime exponents of e, subset, killers)``: ``M`` has ``k``
    generators, summands ``R/d`` with ``d | e`` and ``|R/e|^k <= 2^10``, on
    changed generators and with a redundant relation; the subset is a zero,
    unit or small ideal, an explicit set made cmc by adding the product of its
    members, or a closure, and its killers send exactly the torsion part to 0."""
    D = draw(st.sampled_from([ZZ, F2]))
    # Two or more generators first, and a nonzero exponent of the first
    # prime, so that most modules have several distinct invariant factors.
    k = draw(st.sampled_from([2, 3, 1]))
    budget, exps = 2 ** (10 // k), {}
    for q in ENUM_PRIMES[D]:
        top = 0
        while _norm(D, q) ** (top + 1) <= budget:
            top += 1
        exps[q] = draw(st.integers(0 if exps else 1, top))
        budget //= _norm(D, q) ** exps[q]
    e = _product(D, [D.pow(q, v) for q, v in exps.items()])
    diag = [_product(D, [D.pow(q, draw(st.integers(0, v))) for q, v in exps.items()])
            for _ in range(k)]
    rows = [[diag[i] if i == j else D.zero for j in range(k)] for i in range(k)]
    small = st.sampled_from([D.one] + list(ENUM_PRIMES[D]) + [ENUM_OTHER[D]])
    for _ in range(draw(st.integers(0, 3)) if k >= 2 else 0):
        # Add a multiple of one row to another: a change of generators.
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(small)
        rows[i] = [D.add(a, D.mul(c, b)) for a, b in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        # A redundant relation: a combination of the others.
        c1, c2 = draw(small), draw(small)
        for row in rows:
            row.append(D.add(D.mul(c1, row[0]), D.mul(c2, row[-1])))
    module = FpModule(D, k, Mat(D, rows, k, len(rows[0])))
    top = max(exps.values()) or 1
    # Primes first: Hypothesis favours the first entries.
    pool = [*ENUM_PRIMES[D], ENUM_OTHER[D], D.one, D.zero]
    kind = draw(st.sampled_from(["gamma", "explicit", "closure"]))
    # An explicit set draws two members or more, so that its cogenerator,
    # their product, is not always one of them.
    members = draw(st.lists(st.sampled_from(pool[:-1]), min_size=1 + (kind == "explicit"),
                            max_size=3))
    if kind == "gamma":
        g = _product(D, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))
        subset, killers = Ideal(D, g), [D.pow(g, top)]
    elif kind == "explicit":
        subset = CmcSet.explicit(D, members + [_product(D, members)])
        killers = list(subset.elems)
    else:
        subset = CmcSet.closure(D, members)
        killers = [D.pow(_product(D, members), top)]
    return module, e, exps, subset, killers


@given(enumerable_cases())
@settings(max_examples=50, deadline=None)
def test_gamma_and_tau_match_the_enumeration(case):
    module, e, exps, subset, killers = case
    D = module.domain
    enum = EnumeratedModule(module, e)
    assert len(enum.box) <= 2 ** 10
    powers = [D.pow(q, j) for q, v in exps.items() for j in range(1, v + 1)]
    assert module.rank == 0
    assert enum.counts(enum.box, enum.zero_set, powers) == \
        invariant_counts(D, module.factors, powers)
    if isinstance(subset, Ideal):
        part, _ = gamma(subset, module)
        quotient = ModGamma(subset)(module)
    else:
        part, _ = tau(subset, module)
        quotient = ModTau(subset)(module)
    lift = enum.killed(killers)
    assert part.rank == 0 and quotient.rank == 0
    assert enum.counts(lift, enum.zero_set, powers) == invariant_counts(D, part.factors, powers)
    assert enum.counts(enum.box, lift, powers) == invariant_counts(D, quotient.factors, powers)


def test_asset_serialization():
    a = ass(R.direct_sum(cyc(12)))
    assert a.to_json() == ["(0)", "(2)", "(3)"]
    ap = ass(FpModule.from_invariants(F2, 1, [(0, 1, 1)]))
    assert ap.to_json() == ["(0)", "(x)", "(x+1)"]


# -- depth read off the associated primes --------------------------------------
# A scan row passes the primes it already holds; ``depth`` then divides the
# generator by each prime instead of taking a gcd with the largest factor.

@st.composite
def depth_with_primes_cases(draw):
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    if domain is ZZ:
        elems = st.integers(-30, 30)
    else:
        elems = st.lists(st.integers(0, domain.p - 1), max_size=4).map(domain.elem_from_json)
    nonzero = elems.filter(lambda e: not domain.is_zero(e))
    rank = draw(st.integers(0, 1))
    factors = draw(st.lists(nonzero, max_size=3))  # no factors and rank 0: the zero module
    shared = [domain.mul(d, draw(nonzero)) for d in factors[:1]]
    # Zero, a unit, a multiple of a factor (shares its primes) or any element.
    gen = draw(st.sampled_from([domain.zero, domain.one, *shared]) | elems)
    return Ideal(domain, gen), FpModule.from_invariants(domain, rank, factors)


@given(depth_with_primes_cases())
@settings(max_examples=300, deadline=None)
def test_depth_from_the_primes_matches_the_gcd(case):
    j, m = case
    assert depth(j, m, ass(m)) == depth(j, m)


def test_depth_from_the_primes_edge_cases():
    x = (0, 1)
    for domain, g, other in [(ZZ, 6, 35), (F2, F2.mul(x, x), (1, 1)),
                             (F5, (1, 1), (2, 0, 1))]:
        torsion = FpModule.from_invariants(domain, 0, [g])
        mixed = FpModule.from_invariants(domain, 1, [g])
        for gen in (domain.zero, domain.one, g, other):
            j = Ideal(domain, gen)
            for m in (FpModule.zero(domain), FpModule.free(domain, 1), torsion, mixed):
                assert depth(j, m, ass(m)) == depth(j, m) == depth_reference(j, m)
