import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stab import domains
from stab.domains import ZZ, poly_ring, BackendMismatch, ZeroInputError, FACTOR_MEMO_BOUND

import oracles

F2 = poly_ring(2)
F5 = poly_ring(5)

ints = st.integers(min_value=-10**6, max_value=10**6)


def poly_elems(domain, max_deg=4):
    return st.lists(st.integers(0, domain.p - 1), max_size=max_deg + 1).map(
        lambda cs: domain.elem_from_json(cs))


def test_gcd_ext_examples():
    g, u, v = ZZ.gcd_ext(12, 8)
    assert g == 4 and u * 12 + v * 8 == 4
    g, u, v = ZZ.gcd_ext(-7, 0)
    assert g == 7 and u * -7 + v * 0 == 7
    assert ZZ.gcd_ext(0, 0) == (0, 1, 0)
    assert F2.gcd((0, 1, 1), (0, 1)) == (0, 1)


@given(ints, ints)
def test_gcd_ext_bezout_int(a, b):
    g, u, v = ZZ.gcd_ext(a, b)
    assert u * a + v * b == g
    if g:
        assert a % g == 0 and b % g == 0
        assert ZZ.lcm(a, b) * g == abs(a * b)
    else:
        assert a == 0 and b == 0


@given(poly_elems(F5), poly_elems(F5))
def test_gcd_ext_bezout_poly(a, b):
    g, u, v = F5.gcd_ext(a, b)
    assert F5.add(F5.mul(u, a), F5.mul(v, b)) == g
    if g:
        assert F5.divides(g, a) and F5.divides(g, b)
        assert g == F5.canon(g)[0]
        lhs = F5.canon(F5.mul(F5.lcm(a, b), g))[0]
        assert lhs == F5.canon(F5.mul(a, b))[0]


def test_factor_examples():
    assert ZZ.factor(12) == [(2, 2), (3, 1)]
    assert ZZ.factor(-1) == []
    assert ZZ.factor(1) == []
    assert F2.factor((0, 1, 1)) == [((0, 1), 1), ((1, 1), 1)]
    with pytest.raises(ZeroInputError):
        ZZ.factor(0)
    with pytest.raises(ZeroInputError):
        F2.factor(())


def test_factor_result_is_a_fresh_list():
    for domain, a in [(ZZ, 360), (F5, (2, 0, 3, 1))]:
        first = domain.factor(a)
        want = list(first)
        first.append(first[0])
        first[0] = (domain.one, 99)
        assert domain.factor(a) == want
        assert domain.factor(a) is not domain.factor(a)


def test_factor_memo_keys_on_canonical_associate():
    assert ZZ.factor(-360) == ZZ.factor(360) == [(2, 3), (3, 2), (5, 1)]
    f = (1, 0, 1)  # x^2 + 1 = (x + 2)(x + 3) over GF(5)
    assert F5.factor(F5.mul((3,), f)) == F5.factor(f) == [((2, 1), 1), ((3, 1), 1)]
    # Equal elements of different backends never share an entry.
    assert F2.factor((1, 0, 1)) == [((1, 1), 2)]


def test_factor_memo_holds_exactly_its_bound():
    start = 10**9
    ZZ.factor(start)
    for n in range(start + 1, start + FACTOR_MEMO_BOUND + 10):
        ZZ.factor(n)
        # Least recently used goes first: reading ``start`` keeps it.
        ZZ.factor(start)
    info = domains._factored.cache_info()
    assert info.maxsize == info.currsize == FACTOR_MEMO_BOUND
    hits = info.hits
    ZZ.factor(start)
    ZZ.factor(start + FACTOR_MEMO_BOUND + 9)
    assert domains._factored.cache_info().hits == hits + 2
    ZZ.factor(start + 1)
    assert domains._factored.cache_info().hits == hits + 2


def test_factor_large_prime_pair():
    # Pollard rho path: a product of two 10-digit primes.
    p, q = 2147483647, 2147483629
    assert ZZ.factor(p * q) == sorted([(q, 1), (p, 1)])


@pytest.mark.parametrize("factors", [
    [(4294967279, 1), (4294967291, 1)],  # two 32-bit primes
    [(10007, 3), (65537, 2)],  # prime powers above the trial-division bound
    [(1073741789, 2)],  # square of a 30-bit prime
    [(3, 1), (11, 1), (17, 1), (16777213, 1)],  # Carmichael 561 times a 24-bit prime
], ids=["two-32-bit", "prime-powers", "square-30-bit", "carmichael"])
def test_factor_rho_shapes(factors):
    n = 1
    for p, e in factors:
        n *= p**e
    assert ZZ.factor(n) == factors


def _prime_from(bits, offset):
    """The least prime at or above ``2^(bits-1) + offset mod 2^(bits-1)``."""
    p = 2 ** (bits - 1) + offset % 2 ** (bits - 1)
    while not domains._is_probable_prime(p):
        p += 1
    return p


@given(st.lists(st.builds(_prime_from, st.integers(8, 28), st.integers(0, 2**27)),
                min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_factor_product_of_primes_property(primes):
    n = 1
    for p in primes:
        n *= p
    prod = 1
    for p, e in ZZ.factor(n):
        assert domains._is_probable_prime(p)
        prod *= p**e
    assert prod == n


# Valuations by squaring strip each trial prime in O(log v) divisions; they
# must agree with one ``n //= p`` per unit of multiplicity, the reference.

TRIAL_PRIMES = (2, 3, 5, 7, 11, 13)
LARGE_PRIMES = (17, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1)


@st.composite
def trial_prime_products(draw):
    """Products of trial-prime powers, each small or above 2,000 bits, and at
    most one large prime (a cofactor rho would split slowly is avoided)."""
    n = 1
    for p in draw(st.lists(st.sampled_from(TRIAL_PRIMES), unique=True, max_size=6)):
        least = math.ceil(2001 / math.log2(p))  # p^least has over 2,000 bits
        n *= p ** draw(st.integers(0, 40) | st.integers(least, least + 70))
    return n * draw(st.sampled_from((1,) + LARGE_PRIMES))


@given(trial_prime_products())
@example(1)
@example(2 ** 2001)
@example(13 ** 541 * (2**127 - 1))
@example(2 ** 2047 * 3 ** 1263 * 5 ** 1023 * 7 ** 800 * 11 ** 600 * 13 ** 541)
@settings(max_examples=200, deadline=None)
def test_factor_int_strips_trial_primes_as_the_reference(n):
    # Each valuation on its own, as a short one would leave a trial-prime
    # power for the rest of the factoring to find.
    for p in TRIAL_PRIMES:
        if n % p == 0:
            assert domains._valuation(n, p) == oracles.valuation_reference(n, p)
    assert domains._factor_int(n) == oracles.factor_int_reference(n)


# The least strong pseudoprime to every prime base up to 37, and its factors.
PSI_12 = 318665857834031151167461
PSI_12_FACTORS = [(399165290221, 1), (798330580441, 1)]


def test_probable_prime_rejects_the_least_pseudoprime_to_bases_up_to_37():
    assert PSI_12 == PSI_12_FACTORS[0][0] * PSI_12_FACTORS[1][0]
    assert not domains._is_probable_prime(PSI_12)
    assert ZZ.factor(PSI_12) == PSI_12_FACTORS
    with pytest.raises(ValueError, match="not prime"):
        poly_ring(PSI_12)


def test_probable_prime_agrees_with_trial_division_below_2000():
    for n in range(2000):
        assert domains._is_probable_prime(n) == oracles.int_is_prime_trial(n), n


def test_factor_deterministic_when_cold():
    n = 4294967291 * 1073741789 * 16777213
    domains._factored.cache_clear()
    first = ZZ.factor(n)
    domains._factored.cache_clear()
    assert ZZ.factor(n) == first
    # The walk is seeded from n, so two primes of one size split the same way.
    m = 4294967279 * 4294967291
    assert len({domains._pollard_rho(m) for _ in range(8)}) == 1


def test_factor_remultiplies_500_random_per_backend():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 10**9)
        prod = 1
        for p, e in ZZ.factor(n):
            assert p > 0
            prod *= p**e
        assert prod == n
    for domain in (F2, F5):
        for _ in range(500):
            coeffs = [rng.randrange(domain.p) for _ in range(rng.randint(1, 6))]
            a = domain.elem_from_json(coeffs)
            if domain.is_zero(a):
                continue
            prod = domain.one
            for p, e in domain.factor(a):
                assert p == domain.canon(p)[0]
                prod = domain.mul(prod, domain.pow(p, e))
            assert prod == domain.canon(a)[0]


def test_factor_poly_squarefree_structure():
    # (x)^2 (x+1)^3 over GF(2), exercising repeated factors.
    x, x1 = (0, 1), (1, 1)
    f = F2.mul(F2.pow(x, 2), F2.pow(x1, 3))
    assert F2.factor(f) == [(x, 2), (x1, 3)]
    # A zero derivative, left whole to the p-th root: x^4 + 1 = (x+1)^4 over GF(2)
    assert F2.factor((1, 0, 0, 0, 1)) == [(x1, 4)]


def test_factor_poly_higher_degree_irreducible():
    # x^2 + x + 1 is the unique irreducible quadratic over GF(2).
    f = (1, 1, 1)
    assert F2.factor(f) == [(f, 1)]
    g = F2.mul(f, f)
    assert F2.factor(g) == [(f, 2)]


# Monic irreducibles of degree 1 to 3 over the small fields, by trial division.
SMALL_IRREDUCIBLES = {
    p: [q for d in (1, 2, 3) for q in itertools.product(range(p), repeat=d + 1)
        if q[-1] == 1 and oracles.poly_is_irreducible_trial(poly_ring(p), q)]
    for p in (2, 3, 5)}
MERSENNE_31 = 2**31 - 1


@st.composite
def prime_power_products(draw):
    """A unit times distinct primes to powers.  Over GF(2), GF(3) and GF(5)
    the multiplicities include multiples of p, multiples of p plus one and
    values above p^2; over GF(2^31 - 1) the primes are linear, since trial
    irreducibility is infeasible there for higher degrees."""
    p = draw(st.sampled_from([2, 3, 5, MERSENNE_31]))
    D = poly_ring(p)
    if p == MERSENNE_31:
        primes = st.builds(lambda c: (c, 1), st.integers(0, p - 1))
        mults = st.integers(1, 40)
    else:
        primes = st.sampled_from(SMALL_IRREDUCIBLES[p])
        mults = st.one_of(st.integers(1, p + 1).map(lambda k: k * p),
                          st.integers(1, p + 1).map(lambda k: k * p + 1),
                          st.integers(p * p + 1, p * p + 2 * p), st.integers(1, 2 * p))
    f = D.const(draw(st.integers(1, p - 1)))
    for q in draw(st.lists(primes, min_size=1, max_size=3, unique=True)):
        f = D.mul(f, D.pow(q, draw(mults)))
    return D, f


@given(prime_power_products())
@settings(max_examples=150, deadline=None)
def test_poly_factor_matches_the_trial_oracle(case):
    D, f = case
    got = D.factor(f)
    assert got == sorted(got, key=lambda qm: D.prime_key(qm[0]))
    assert oracles.poly_factorization_holds(D, f, got), (D, f, got)


def test_saturate_part_examples():
    assert ZZ.saturate_part(12, 2) == 4
    assert ZZ.saturate_part(12, 6) == 12
    assert ZZ.saturate_part(35, 1) == 1
    assert ZZ.saturate_part(-12, 2) == 4
    with pytest.raises(ZeroInputError):
        ZZ.saturate_part(0, 2)


@given(st.integers(min_value=1, max_value=10**6), ints)
def test_saturate_part_properties_int(d, g):
    s = ZZ.saturate_part(d, g)
    rest = ZZ.exact_div(d, s)
    assert s * rest == d
    assert ZZ.is_unit(ZZ.gcd(rest, g)) or g == 0 and rest == 1
    # every prime of s divides g
    for p, _ in ZZ.factor(s):
        assert ZZ.divides(p, g)


@given(poly_elems(F2, 5), poly_elems(F2, 3))
@settings(max_examples=60)
def test_saturate_part_properties_poly(d, g):
    if F2.is_zero(d):
        return
    s = F2.saturate_part(d, g)
    rest = F2.exact_div(d, s)
    assert F2.mul(s, rest) == F2.canon(d)[0] or F2.mul(s, rest) == d
    for p, _ in F2.factor(s) if not F2.is_unit(s) else []:
        assert F2.divides(p, g)
    if not F2.is_zero(g):
        assert F2.is_unit(F2.gcd(rest, g))


def test_canonical_associates():
    assert ZZ.canon(-5) == (5, -1)
    assert ZZ.canon(0) == (0, 1)
    c, u = F5.canon((1, 2))  # 2x + 1 -> monic
    assert c == (3, 1)
    assert F5.mul(u, (1, 2)) == c


def test_divmod_poly():
    q, r = F5.divmod((1, 0, 1), (2, 1))  # x^2+1 by x+2
    assert F5.add(F5.mul(q, (2, 1)), r) == (1, 0, 1)
    assert len(r) <= 1


def test_element_serialization_roundtrip():
    assert ZZ.elem_from_json("12") == 12
    assert ZZ.elem_to_json(-3) == "-3"
    assert F5.elem_from_json([6, 1]) == (1, 1)
    assert F5.elem_to_json((1, 1)) == [1, 1]
    assert F5.elem_str((1, 0, 2)) == "2x^2+1"


@st.composite
def sparse_polys(draw):
    """A characteristic and an element: zero, a constant, ``x``, or a few
    terms at degrees up to 400, so that most coefficients are zero."""
    p = draw(st.sampled_from([2, 5, 7]))
    kind = draw(st.sampled_from(["zero", "constant", "x", "sparse"]))
    if kind == "zero":
        return p, ()
    if kind == "constant":
        return p, (draw(st.integers(1, p - 1)),)
    if kind == "x":
        return p, (0, 1)
    terms = draw(st.dictionaries(st.integers(0, 400), st.integers(1, p - 1),
                                 min_size=1, max_size=5))
    coeffs = [0] * (max(terms) + 1)
    for i, c in terms.items():
        coeffs[i] = c
    return p, tuple(coeffs)


@given(sparse_polys())
@settings(max_examples=300, deadline=None)
@example((2, (0,) * 200 + (1,)))
@example((7, (6, 6, 0, 1)))
def test_poly_elem_str_matches_the_dense_loop(case):
    p, a = case
    assert poly_ring(p).elem_str(a) == oracles.poly_elem_str_reference(a)


# Differential tests of GF(p)[x] arithmetic against the reference loops in
# ``oracles``, at degrees up to 300.  These characteristics cover packing
# slots of one and two bytes (p = 2, 3, 5), five and six (65537), eight and
# nine (2^31 - 1), sixteen and seventeen (2^61 - 1), and thirty-two and
# thirty-three (2^127 - 1); the slot-edge test adds three and four bytes.
DIFF_PRIMES = [2, 3, 5, 65537, 2**31 - 1, 2**61 - 1, 2**127 - 1]


def long_polys(p, max_deg=300):
    coeffs = st.one_of(st.integers(0, p - 1), st.just(p - 1))
    return st.integers(0, max_deg + 1).flatmap(
        lambda n: st.lists(coeffs, min_size=n, max_size=n)).map(poly_ring(p).elem_from_json)


def poly_pair(max_deg=300):
    return st.sampled_from(DIFF_PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), long_polys(p, max_deg), long_polys(p, max_deg)))


@given(poly_pair())
@settings(max_examples=80, deadline=None)
def test_poly_arithmetic_matches_reference(pab):
    p, a, b = pab
    F = poly_ring(p)
    assert F.mul(a, b) == oracles.poly_mul_schoolbook(p, a, b)
    assert F.add(a, b) == oracles.poly_add_reference(p, a, b)
    assert F.sub(a, b) == oracles.poly_sub_reference(p, a, b)
    assert F.sub(a, a) == F.add(a, F.sub((), a)) == ()
    assert F.add(a, ()) == F.add((), a) == F.sub(a, ()) == a
    # c agrees with a from x^k up, so a - c cancels its top coefficients.
    k = min(len(a), len(b))
    c = F.elem_from_json(list(b[:k]) + list(a[k:]))
    assert F.sub(a, c) == oracles.poly_sub_reference(p, a, c)
    if b:
        assert F.divmod(a, b) == oracles.poly_divmod_reference(p, a, b)
    assert F.gcd(a, b) == oracles.poly_gcd_reference(p, a, b) == F.gcd_ext(a, b)[0]


@given(poly_pair(max_deg=12), st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_poly_divmod_exact_and_monomial_divisors(pab, shift):
    p, a, b = pab
    F = poly_ring(p)
    if not b:
        return
    # Products divide exactly; c * x^k divisors take the shift-and-scale path.
    for divisor in (b, (0,) * shift + b[-1:]):
        assert F.divmod(F.mul(a, divisor), divisor) == (a, ())
        assert F.divmod(a, divisor) == oracles.poly_divmod_reference(p, a, divisor)


def _slot_edges(p, max_len=300):
    """Operand lengths on either side of each packing-slot width."""
    k = 1
    while (n := (256**k - 1) // (p - 1) ** 2) < max_len:  # the longest k bytes hold
        yield from (m for m in (n, n + 1) if m >= 1)
        k += 1


@pytest.mark.parametrize("p", [2, 3, 5, 17, 4099, 65537, 2**31 - 1, 2**61 - 1, 2**127 - 1])
def test_poly_mul_worst_case_coefficients_at_slot_edges(p):
    # All coefficients p - 1 make the middle product coefficient exactly
    # n * (p-1)^2, the bound the slot width is chosen against.
    for n in sorted(set(_slot_edges(p))) + [2, 12, 300]:
        a = (p - 1,) * n
        b = (p - 1,) * (n + 3)
        assert poly_ring(p).mul(a, b) == oracles.poly_mul_schoolbook(p, a, b), n


@given(st.sampled_from(DIFF_PRIMES).flatmap(lambda p: st.tuples(
    st.just(p), long_polys(p, 3), long_polys(p, 40), st.integers(0, 200))))
@settings(max_examples=40, deadline=None)
def test_saturate_part_of_power_matches_reference(case):
    p, g, u, k = case
    F = poly_ring(p)
    d = F.mul(F.pow(g, k), u) if g else u
    if not d:
        return
    assert F.saturate_part(d, g) == oracles.poly_saturate_part_reference(p, d, g)


@given(st.one_of(ints.map(lambda a: (ZZ, a)),
                 *[poly_elems(F, 5).map(lambda a, F=F: (F, a))
                   for F in (F2, F5, poly_ring(131))]))
def test_zero_is_the_only_falsy_element(case):
    D, a = case
    assert bool(a) == (not D.is_zero(a))
    assert not D.zero and D.one


SATURATE_EDGES = [1, -1, 2**60 * 3**5, -(2**60) * 3**5]
# High multiplicities, where too small a power in saturate_part shows.
smooth_ints = st.builds(lambda e2, e3, e5, u: 2**e2 * 3**e3 * 5**e5 * u,
                        *[st.integers(0, 120)] * 3, st.integers(1, 10**6))


@given(st.one_of(st.integers(-10**30, 10**30), st.sampled_from(SATURATE_EDGES), smooth_ints),
       st.one_of(ints, st.sampled_from([0, 1, -1, 2, 3, 5, 6, 7, 10, 14, 15, 30])))
@settings(max_examples=300)
def test_saturate_part_int_matches_reference(d, g):
    if d == 0:
        return
    assert ZZ.saturate_part(d, g) == oracles.int_saturate_part_reference(d, g)
    # Every prime of d divides a multiple of d.
    assert ZZ.saturate_part(d, 7 * d) == abs(d)


def test_saturate_part_edge_cases():
    d = 2**60 * 3**5
    assert [ZZ.saturate_part(d, g) for g in (2, 3, 6, 5, 1, 0)] == [2**60, 3**5, d, 1, 1, d]
    assert ZZ.saturate_part(1, 6) == ZZ.saturate_part(-1, 0) == 1
    for F in (F2, F5):
        x = (0, 1)
        d = F.mul(F.pow(x, 60), F.pow((1, 1), 5))
        assert F.saturate_part(d, x) == F.pow(x, 60)
        assert F.saturate_part(d, F.one) == F.one
        assert F.saturate_part(F.one, x) == F.one
        assert F.saturate_part(d, F.mul(d, (1, 0, 1))) == F.canon(d)[0]
        assert F.saturate_part(d, ()) == F.canon(d)[0]


# -- interned backends ----------------------------------------------------------
# One instance per backend, so equality and hashing are by identity.

def test_backends_are_interned():
    assert domains.Integers() is ZZ
    assert domains.PolyOverFp(5) is poly_ring(5) is F5
    assert poly_ring(7) is poly_ring(7) and poly_ring(7).characteristic == 7
    assert F2 != F5 and ZZ != F2 and len({ZZ, F2, F5, poly_ring(5), domains.Integers()}) == 3
    for D in (ZZ, F2, F5):
        assert pickle.loads(pickle.dumps(D)) is D and copy.deepcopy(D) is D
    with pytest.raises(ValueError):
        domains.PolyOverFp(4)
    assert 4 not in domains._POLY_RINGS


def test_mixing_poly_backends_still_raises():
    from stab.matrices import Mat
    from stab.modules import FpModule
    with pytest.raises(BackendMismatch):
        Mat(F2, [[(1,)]]) @ Mat(F5, [[(1,)]])
    with pytest.raises(BackendMismatch):
        Mat(F2, [[(1,)]]).solve(Mat(F5, [[(1,)]]))
    with pytest.raises(BackendMismatch):
        FpModule(F2, 1, Mat(F5, [[(2,)]]))
    with pytest.raises(BackendMismatch):
        FpModule.cyclic(F2, (0, 1)).contains(Mat(F5, [[(1,)]]))
