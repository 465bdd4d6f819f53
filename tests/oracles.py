"""Independent brute-force oracles used by the tests.

Everything here works from first principles (trial division, exhaustive
enumeration) and deliberately avoids the library's own factorization and
decomposition paths, so agreement is meaningful.
"""

from itertools import product


def int_is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def poly_is_irreducible_trial(domain, f):
    """Irreducibility by trial division over GF(p), for small degrees."""
    deg = len(f) - 1
    if deg < 1:
        return False
    p = domain.p
    for d in range(1, deg // 2 + 1):
        for coeffs in product(range(p), repeat=d):
            g = tuple(coeffs) + (1,)
            if domain.divmod(f, g)[1] == ():
                return False
    return True


def elem_is_prime_trial(domain, a):
    if domain.kind == "integers":
        return int_is_prime_trial(abs(a))
    return poly_is_irreducible_trial(domain, domain.canon(a)[0])


def module_elements_from_factors(domain, factors):
    """All elements of (+) R/(d) as residue tuples."""
    residue_sets = []
    for d in factors:
        if domain.kind == "integers":
            residue_sets.append(list(range(abs(d))))
        else:
            p, deg = domain.p, len(d) - 1
            opts = [tuple()]
            for _ in range(deg):
                opts = [o + (c,) for o in opts for c in range(p)]
            residue_sets.append([_trim(o) for o in opts])
    return list(product(*residue_sets))


def _trim(t):
    i = len(t)
    while i > 0 and t[i - 1] == 0:
        i -= 1
    return t[:i]


def element_annihilator(domain, factors, elem):
    """Generator of the annihilator of one element of (+) R/(d)."""
    acc = domain.one
    for d, x in zip(factors, elem):
        need = domain.exact_div(d, domain.gcd(d, x))
        acc = domain.lcm(acc, need)
    return domain.canon(acc)[0]


def ass_oracle(domain, factors):
    """Associated primes of a finite module by element-annihilator enumeration.

    Returns the set of canonical prime elements p such that some element has
    annihilator exactly (p), primality checked by trial division.
    """
    out = set()
    for elem in module_elements_from_factors(domain, factors):
        a = element_annihilator(domain, factors, elem)
        if not domain.is_zero(a) and not domain.is_unit(a):
            if elem_is_prime_trial(domain, a):
                out.add(a)
    return out


def hom_count_oracle(module, target):
    """Number of module maps by enumerating generator images with a relation check."""
    domain = module.domain
    elements = target.elements()
    count = 0
    rel = module.relations
    for images in product(elements, repeat=module.ambient):
        ok = True
        for j in range(rel.cols):
            col = rel.col(j)
            total = [domain.zero] * target.ambient
            for coeff, vec in zip(col, images):
                for i in range(target.ambient):
                    total[i] = domain.add(total[i], domain.mul(coeff, vec[i]))
            if not target.contains_vector(total):
                ok = False
                break
        if ok:
            count += 1
    return count


def cyclic_hom_oracle(a, b):
    """The subgroup {t in Z_b : a t = 0 (b)} by enumeration: (order, generator set)."""
    sols = [t for t in range(b) if (a * t) % b == 0]
    return len(sols)


def cyclic_ext_oracle(a, b):
    """|Z_b / a Z_b| by enumeration."""
    image = {(a * t) % b for t in range(b)}
    return b // len(image)


def elementary_divisors(domain, rank, factors):
    """Multiset of prime powers (canonical) plus rank, via the domain's factor."""
    out = []
    for d in factors:
        for p, e in domain.factor(d):
            out.append(domain.pow(p, e))
    return rank, sorted(out, key=domain.elem_sort_key)


# Reference GF(p)[x] arithmetic by the direct loops, reducing every
# coefficient at every step, for differential tests of the backend's packed
# multiplication and lazy division.  Polynomials are coefficient tuples, low
# to high, without trailing zeros.

def poly_mul_schoolbook(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(tuple(out))


def poly_sub_reference(p, a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _trim(tuple((x - y) % p for x, y in zip(a, b)))


def poly_divmod_reference(p, a, b):
    """Long division reducing every coefficient at every step."""
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            factor = c * inv_lead % p
            q[i - db] = factor
            for j, cb in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - factor * cb) % p
    return _trim(tuple(q)), _trim(tuple(rem))


def poly_gcd_reference(p, a, b):
    """Monic gcd by Euclid's algorithm over the reference division."""
    while b:
        a, b = b, poly_divmod_reference(p, a, b)[1]
    if not a:
        return ()
    return poly_mul_schoolbook(p, (pow(a[-1], p - 2, p),), a)


def poly_saturate_part_reference(p, d, g):
    """Divide out one gcd with ``g`` at a time until none is left."""
    c = d
    h = poly_gcd_reference(p, c, g)
    while len(h) != 1:
        c = poly_divmod_reference(p, c, h)[0]
        h = poly_gcd_reference(p, c, g)
    s = poly_divmod_reference(p, d, c)[0]
    return poly_mul_schoolbook(p, (pow(s[-1], p - 2, p),), s)
