import random

import pytest
from hypothesis import given, settings, strategies as st

from stab import domains
from stab.domains import ZZ, poly_ring, ZeroInputError, FACTOR_MEMO_BOUND

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
    memo = domains._FACTOR_MEMO
    start = 10**9
    for n in range(start, start + FACTOR_MEMO_BOUND + 10):
        ZZ.factor(n)
    assert len(memo.entries) == FACTOR_MEMO_BOUND
    # First in, first out: the oldest entries went, the newest stayed.
    assert (ZZ, start) not in memo.entries
    assert (ZZ, start + FACTOR_MEMO_BOUND + 9) in memo.entries


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


def test_factor_deterministic_when_cold():
    n = 4294967291 * 1073741789 * 16777213
    domains._FACTOR_MEMO.entries.clear()
    first = ZZ.factor(n)
    domains._FACTOR_MEMO.entries.clear()
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
    # derivative-zero branch: x^4 + 1 = (x+1)^4 over GF(2)
    assert F2.factor((1, 0, 0, 0, 1)) == [(x1, 4)]


def test_factor_poly_higher_degree_irreducible():
    # x^2 + x + 1 is the unique irreducible quadratic over GF(2).
    f = (1, 1, 1)
    assert F2.factor(f) == [(f, 1)]
    g = F2.mul(f, f)
    assert F2.factor(g) == [(f, 2)]


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
