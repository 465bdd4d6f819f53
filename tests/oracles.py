"""Independent brute-force oracles and reference constructions used by the tests.

The oracles work from first principles (trial division, exhaustive
enumeration) and deliberately avoid the library's own factorization and
decomposition paths, so agreement is meaningful.  The reference
constructions keep the direct, separately built forms of code the library
now shares, and differential tests compare the two.
"""

import json
import math
from itertools import product

from stab.domains import _is_probable_prime, _pollard_rho
from stab.invariants import DEPTH_INF, AssSet
from stab.matrices import Mat, _pivots
from stab.modules import (FpModule, HomSpace, Ideal, Morphism, SubmoduleError, sub_equal,
                          sub_intersect, tensor_mor)
from stab.functors import SkeletonFormError


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


def poly_factorization_holds(domain, f, pairs):
    """Whether ``pairs`` of ``(q, m)`` factor the nonzero ``f`` into primes.

    The product of the ``q^m`` (schoolbook) must be ``f`` made monic, each
    ``q`` must be irreducible by trial division, and each ``m`` must be the
    number of times ``q`` divides ``f`` exactly.
    """
    p = domain.p
    monic = domain.canon(f)[0]
    prod = (1,)
    for q, m in pairs:
        if m < 1 or not poly_is_irreducible_trial(domain, q):
            return False
        for _ in range(m):
            prod = poly_mul_schoolbook(p, prod, q)
        rest, count = monic, 0
        while True:
            quo, rem = poly_divmod_reference(p, rest, q)
            if rem:
                break
            rest, count = quo, count + 1
        if count != m:
            return False
    return prod == monic


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


def ass_reference(m):
    """Associated primes from one full factorization of the largest factor."""
    D = m.domain
    primes = []
    if m.rank > 0:
        primes.append(Ideal(D, D.zero))
    if m.factors:
        for p, _ in D.factor(m.factors[-1]):
            primes.append(Ideal(D, p))
    return AssSet(primes)


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
            if not target.contains(Mat.from_cols(domain, [total], target.ambient)):
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


def poly_elem_str_reference(a):
    """A GF(p)[x] element as text, walking every coefficient from the top."""
    if not a:
        return "0"
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return "+".join(terms)


def poly_add_reference(p, a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _trim(tuple((x + y) % p for x, y in zip(a, b)))


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


def int_saturate_part_reference(d, g):
    """Divide out one gcd with ``g`` at a time until none is left."""
    c = abs(d)
    h = math.gcd(c, g)
    while h != 1:
        c //= h
        h = math.gcd(c, g)
    return abs(d) // c


def matmul_reference(a, b):
    """``a @ b`` summing every product, zero terms included."""
    D = a.domain
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = D.zero
            for k in range(a.cols):
                acc = D.add(acc, D.mul(a[i, k], b[k, j]))
            row.append(acc)
        out.append(row)
    return Mat(D, out, a.rows, b.cols)


# Reference linear algebra by the direct routes: one right-hand side at a
# time, and a preimage as the first rows of the kernel of the augmented
# matrix.  Used by differential tests of ``Mat.solve``, ``Mat.preimage`` and
# ``Mat.kernel``.

def solve_vector_reference(a, b):
    """A solution ``x`` of ``a @ x == b`` for one vector ``b``, or ``None``."""
    D = a.domain
    H, U = a.hnf()
    y = [D.zero] * a.cols
    pivots = []
    for j in range(a.cols):
        prow = next((i for i in range(a.rows) if not D.is_zero(H[i, j])), None)
        if prow is not None:
            pivots.append((prow, j))
    for prow, j in pivots:
        acc = b[prow]
        for _, j2 in pivots:
            if j2 >= j:
                break
            acc = D.sub(acc, D.mul(H[prow, j2], y[j2]))
        q, r = D.divmod(acc, H[prow, j])
        if not D.is_zero(r):
            return None
        y[j] = q
    x = U.mul_vec(y)
    if any(not D.is_zero(D.sub(c, t)) for c, t in zip(a.mul_vec(x), b)):
        return None
    return x


def kernel_reference(a):
    """Transform columns under the zero columns of the Hermite form, reduced."""
    D = a.domain
    H, U = a.hnf()
    zero_cols = [j for j in range(a.cols)
                 if all(D.is_zero(H[i, j]) for i in range(a.rows))]
    return U.take_cols(zero_cols).span_basis()


def preimage_reference(a, b):
    """``{x : a @ x in span(b)}`` as the first rows of the kernel of ``[a | b]``."""
    return kernel_reference(a.hstack(b)).take_rows(range(a.cols)).span_basis()


# The Hermite path of ``Mat.solve`` and ``Mat.preimage``, kept whole for
# every input.  The library answers monomial systems entrywise instead, and a
# differential test compares the two.

def solve_hermite_reference(a, b):
    """``a.solve(b)`` by back-substitution on the Hermite form of ``a``."""
    D = a.domain
    if not b.cols:
        return Mat.zero(D, a.cols, 0)
    H, U = a.hnf()
    pivots = _pivots(H)
    ys = []
    for rhs in b.columns():
        y = []
        for prow in pivots:
            acc = rhs[prow]
            hrow = H.data[prow]
            for j, yj in enumerate(y):
                if hrow[j] and yj:
                    acc = D.sub(acc, D.mul(hrow[j], yj))
            q, r = D.divmod(acc, hrow[len(y)])
            if r:
                return None
            y.append(q)
        ys.append(y + [D.zero] * (a.cols - len(y)))
    x = U @ Mat.from_cols(D, ys, a.cols)
    return x if a @ x == b else None


def preimage_hermite_reference(a, b):
    """``a.preimage(b)`` from the Hermite form of ``[a | b]``."""
    big = a.hstack(b)
    H, U = big.hnf()
    zero_cols = range(len(_pivots(H)), big.cols)
    return U.take_cols(zero_cols).take_rows(range(a.cols)).span_basis()


def decomposition_reference(module):
    """``(rank, factors, to_dec, from_dec)`` of a module, computed eagerly.

    Torsion rows of the Smith form come first in diagonal order, then the free
    rows; rows with a unit on the diagonal present vanishing generators and
    are dropped.  Uses the public ``snf`` and ``inverse`` rather than the
    module's own decomposition.
    """
    D = module.domain
    d, u, _ = module.relations.snf()
    diag = d.diagonal()
    torsion = [i for i, a in enumerate(diag) if not D.is_zero(a) and not D.is_unit(a)]
    free = [i for i in range(module.ambient) if i >= len(diag) or D.is_zero(diag[i])]
    order = torsion + free
    return (len(free), tuple(diag[i] for i in torsion),
            u.take_rows(order), u.inverse().take_cols(order))


# Reference constructions in their earlier, separately built forms: the
# localized tensor with one extra relation per invariant factor (units
# included), complex homology read per index, and the periodic-tail verdict
# by trying every start and period in order.  Differential tests compare the
# shared library bodies against them up to isomorphism.  Complex homology
# tensored term by term, zero ends included, and the oscillating map by the
# skeleton route, whose skeleton-form reader checks each diagonal entry, are
# compared exactly: the same relations and map matrices.

def loc_tensor_reference(module, x, n):
    """``(module[1/x]) (x) N`` with one extra relation per invariant factor."""
    D = n.domain
    base = module.tensor(n)
    extra = []
    for idx, d in enumerate(base.factors):
        col = [D.zero] * (len(base.factors) + base.rank)
        col[idx] = D.exact_div(d, D.saturate_part(d, x))
        extra.append(base._from_dec.mul_vec(col))
    if not extra:
        return base
    add = Mat.from_cols(D, extra, base.ambient)
    return FpModule(D, base.ambient, base.relations.hstack(add))


def factor_through_reference(f, include):
    """``f' : source -> S`` with ``include f' == f``, for a submodule
    inclusion ``include : S -> target`` whose image holds that of ``f``:
    ``f`` itself when ``include`` is the target's identity, else one solve
    over the inclusion's columns and the target's relations."""
    S, target = include.source, f.target
    if S.relations == target.relations and include.mat == Mat.identity(S.domain, S.ambient):
        return Morphism(f.source, S, f.mat, check=False)
    sol = include.mat.hstack(target.relations).solve(f.mat)
    if sol is None:
        raise SubmoduleError("morphism does not factor through the submodule")
    return Morphism(f.source, S, sol.take_rows(range(include.mat.cols)))


def homology_at_reference(f, h):
    """``(ker(h)/im(f), include)`` at the middle of ``A --f--> B --h--> C``:
    the kernel with its inclusion (``B`` itself when ``C`` has no
    generators), ``f`` factored through it, then the quotient by that
    factor."""
    if h.target.ambient:
        k, incl = h.source.submodule(h.mat.preimage(h.target.relations))
    else:
        k, incl = h.source, Morphism.identity(h.source)
    return k.quotient(factor_through_reference(f, incl).mat), incl


def same_span(a, b):
    """Whether two presentations share their generators and relation span."""
    free = FpModule.free(a.domain, a.ambient)
    return a.ambient == b.ambient and sub_equal(free, a.relations, b.relations)


def complex_homology_reference(d2, d1, index, n):
    """``H_index(P (x) N)``: a cokernel for 0, a kernel for 2, else ker/im."""
    ident = Morphism.identity(n)
    t2, t1 = tensor_mor(d2, ident), tensor_mor(d1, ident)
    if index == 0:
        return t1.target.quotient(t1.mat)
    if index == 2:
        return t2.source.spanned(t2.mat.preimage(t2.target.relations))
    k, incl = t1.source.submodule(t1.mat.preimage(t1.target.relations))
    image = factor_through_reference(t2, incl)
    return FpModule(k.domain, k.ambient, k.relations.hstack(image.mat))


class TensoredComplexHomologyReference:
    """``H_index(P (x) -)`` as homology at the middle of the two tensored maps
    around ``P_index``, with a zero map into or out of the zero module at the
    ends, each tensored as it stands."""

    def __init__(self, d2, d1, index):
        zero = FpModule.zero(d1.source.domain)
        self.maps = ((d1, Morphism.zero_map(d1.target, zero)), (d2, d1),
                     (Morphism.zero_map(zero, d2.source), d2))[index]
        self.middle = self.maps[1].source

    def _tensored(self, n):
        d, e = self.maps
        ident = Mat.identity(n.domain, n.ambient)
        b_n = self.middle.tensor(n)
        return (Morphism(d.source.tensor(n), b_n, d.mat.kron(ident), check=False),
                Morphism(b_n, e.target.tensor(n), e.mat.kron(ident), check=False))

    def __call__(self, n):
        return homology_at_reference(*self._tensored(n))[0]

    def map(self, g):
        fa, incl_a = homology_at_reference(*self._tensored(g.source))
        fb, incl_b = homology_at_reference(*self._tensored(g.target))
        mid = tensor_mor(Morphism.identity(self.middle), g)
        carried = factor_through_reference(mid.compose(incl_a), incl_b)
        return Morphism(fa, fb, carried.mat)


def skeleton_pairs_reference(module):
    """``[(p, e), ...]`` read entry by entry: diagonal, prime powers, canonical,
    sorted by prime then exponent; raises :class:`SkeletonFormError` otherwise."""
    D = module.domain
    rel = module.relations
    if module.rank != 0 or rel.cols != module.ambient:
        raise SkeletonFormError("not a skeleton presentation")
    pairs = []
    for j in range(rel.cols):
        col = rel.col(j)
        if any(not D.is_zero(a) for i, a in enumerate(col) if i != j):
            raise SkeletonFormError("relations are not diagonal")
        d = col[j]
        if D.is_zero(d) or D.is_unit(d):
            raise SkeletonFormError("diagonal entries must be prime powers")
        fac = D.factor(d)
        if len(fac) != 1:
            raise SkeletonFormError("diagonal entries must be prime powers")
        if D.canon(d)[0] != d:
            raise SkeletonFormError("diagonal entries must be canonical")
        pairs.append(fac[0])
    keys = [(D.prime_key(p), e) for p, e in pairs]
    if keys != sorted(keys):
        raise SkeletonFormError("summands are not canonically sorted")
    return pairs


def skeleton_reference(n):
    """``(skel, to_skel, from_skel)``: a torsion module normalized into its
    skeleton ``diag(p1^e1, ..., pj^ej)``, ordered by prime then exponent,
    with mutually inverse morphisms.  ``R/p^e`` embeds into its invariant
    factor ``R/d`` by the CRT idempotent ``u m mod d``, ``m = d/p^e`` and
    ``u m = 1 mod p^e``."""
    if not n.is_torsion():
        raise SkeletonFormError("skeleton is defined for torsion modules only")
    D = n.domain
    pairs = sorted(((p, e, idx) for idx, d in enumerate(n.factors) for p, e in D.factor(d)),
                   key=lambda t: (D.prime_key(t[0]), t[1], t[2]))
    dim = len(n.factors)
    qs, crt = [], []
    split = [[D.zero] * dim for _ in pairs]
    for r, (p, e, idx) in enumerate(pairs):
        q = D.pow(p, e)
        qs.append(q)
        split[r][idx] = D.one
        d = n.factors[idx]
        m = D.exact_div(d, q)
        _, u, _ = D.gcd_ext(m, q)
        crt.append((idx, D.divmod(D.mul(u, m), d)[1]))
    skel = FpModule(D, len(qs), Mat.monomial(D, len(qs), list(enumerate(qs))))
    to_skel = Morphism(n, skel, Mat(D, split, len(pairs), dim) @ n._to_dec)
    from_skel = Morphism(skel, n, n._from_dec @ Mat.monomial(D, dim, crt))
    return skel, to_skel, from_skel


def oscillating_map_reference(osc, g):
    """``osc.map(g)`` by the skeleton route: ``g`` conjugated into the two
    skeletons by their normalization isomorphisms, whose pairs
    :func:`skeleton_pairs_reference` reads; of the blocks between kept
    summands, those with the same prime and exponent survive, reduced mod p."""
    D = osc.domain
    _, _, from_a = skeleton_reference(g.source)
    _, to_b, _ = skeleton_reference(g.target)
    conj = to_b.compose(g).compose(from_a)
    spairs, tpairs = skeleton_pairs_reference(conj.source), skeleton_pairs_reference(conj.target)
    skeep = [i for i, (p, e) in enumerate(spairs) if e in osc.exponents_of(p)]
    tkeep = [j for j, (p, e) in enumerate(tpairs) if e in osc.exponents_of(p)]
    out = [[D.zero] * len(skeep) for _ in tkeep]
    for col, i in enumerate(skeep):
        for row, j in enumerate(tkeep):
            if spairs[i] == tpairs[j]:
                out[row][col] = D.divmod(conj.mat.data[j][i], spairs[i][0])[1]
    fa = FpModule(D, len(skeep), Mat.monomial(D, len(skeep),
                                              [(c, spairs[i][0]) for c, i in enumerate(skeep)]))
    fb = FpModule(D, len(tkeep), Mat.monomial(D, len(tkeep),
                                              [(r, tpairs[j][0]) for r, j in enumerate(tkeep)]))
    return Morphism(fa, fb, Mat(D, out, len(tkeep), len(skeep)))


# The torsion part, the cmc predicate and the Artin-Rees probe as they were
# built before each became one kernel, one cogenerator search and one
# backward scan: read off the decomposition transform one invariant factor at
# a time, checked pair by pair, and tried for every ``d`` in turn.

def torsion_gens_reference(module, g):
    """Generators of the elements killed by a power of ``g``: each invariant
    factor ``d`` whose part ``s`` on the primes of ``g`` is not a unit gives its
    summand generator times ``d / s``; for ``g == 0`` every generator."""
    D = module.domain
    if D.is_zero(g):
        return Mat.identity(D, module.ambient)
    frommat = module._from_dec
    entries = []
    for idx, d in enumerate(module.factors):
        s = D.saturate_part(d, g)
        if not D.is_unit(s):
            entries.append((idx, D.exact_div(d, s)))
    return frommat @ Mat.monomial(D, frommat.cols, entries)


def is_cmc_reference(cmc_set):
    """For every pair ``(r, s)`` of an explicit set some member is divisible by
    ``lcm(r, s)``; closures are always cmc."""
    if not cmc_set.is_explicit():
        return True
    D, elems = cmc_set.domain, cmc_set.elems
    return all(any(D.divides(D.lcm(r, s), t) for t in elems)
               for r in elems for s in elems)


def artin_rees_probe_reference(beta, n_prime, ideal, horizon):
    """The least ``d`` for which every ``n`` in ``[d, horizon]`` has
    ``cut(n) = I^(n-d) cut(d)``, trying each ``d`` from 0 up."""
    target = beta.target
    cuts = [sub_intersect(target, beta.mat, n_prime.scale(ideal.power_gen(n)))
            for n in range(horizon + 1)]
    for d in range(horizon + 1):
        if all(sub_equal(target, cuts[n], cuts[d].scale(ideal.power_gen(n - d)))
               for n in range(d, horizon + 1)):
            return d
    return None


def periodic_tail_reference(values, window):
    """``(start, k)`` of the first periodic tail covering ``max(window, 2k)``."""
    count = len(values)
    for s in range(count):
        for k in range(2, count + 1):
            if count - s >= max(window, 2 * k) and all(
                    values[i] == values[i + k] for i in range(s, count - k)):
                return s, k
    return None


# A closed-form oracle for whole quotient scans over a PID.  With
# ``M = R^r (+) (+) R/(d_i)`` and ``I = (g)``, the quotient ``M / I^n M`` is
# ``(R/g^n)^r (+) (+) R/gcd(d_i, g^n)``; the layer ``I^(n-1) M / I^n M`` and,
# for ``M' = (+) m_i e_i``, the graded layer ``I^n M / I^n M'`` are sums of
# cyclic modules too (:func:`quotient_value_reference`).  For a fixed ``A = R^s (+) (+) R/(a_j)``
# and one cyclic summand ``R/b`` of it (``b = 0`` for ``R``):
#   Hom(A, R/b)   = (R/b)^s (+) (+) R/gcd(a_j, b)   (no torsion part when b = 0),
#   Ext^1(A, R/b) = (+) R/gcd(a_j, b),
#   Tor_1(A, R/b) = (+) R/gcd(a_j, b)               (zero when b = 0),
#   Gamma_(h)(R/b) = R/(h-part of b)                 (zero when b = 0 and h != 0),
#   tau_S(R/b)     = R/gcd(b, s)                     (s a cogenerator of an explicit
#                                                     set S; zero when b = 0 and s != 0),
# and the quotients by the last two are ``R/(b / part)`` (``R`` again when
# b = 0: a free summand stays).  A multiplicative closure reduces to Gamma at
# the product of its generators.  So every row is known without a normal
# form; primes come from trial division of ``g``, the ``d_i`` and the
# ``a_j``, not from the library's ``factor``.  Depth over such a row is 0
# when ``J = (j)`` lies in an associated prime (a prime of ``j`` divides a
# torsion order, or ``j = 0`` and the row is nonzero), else 1 with free
# rank and ``j`` not a unit, else ``inf``.

HOM_KINDS = ("hom_from", "ext1", "tor1")
TORSION_KINDS = ("gamma", "mod_gamma", "tau", "mod_tau")


def prime_divisors_trial(domain, a):
    """The canonical primes dividing a nonzero ``a``, by trial division."""
    out = []
    if domain.kind == "integers":
        n, p = abs(a), 2
        while p * p <= n:
            if n % p == 0:
                out.append(p)
                while n % p == 0:
                    n //= p
            p += 1
        return out + ([n] if n > 1 else [])
    rest, deg = domain.canon(a)[0], 1
    while len(rest) > 1:
        # Monic candidates in increasing degree: the first divisor found is prime.
        for coeffs in product(range(domain.p), repeat=deg):
            f = tuple(coeffs) + (1,)
            if len(rest) > 1 and domain.divmod(rest, f)[1] == ():
                out.append(f)
                while domain.divmod(rest, f)[1] == ():
                    rest = domain.divmod(rest, f)[0]
        deg += 1
    return out


def torsion_split_reference(domain, b, kind, subset):
    """The cyclic order of the torsion part (``gamma``, ``tau``) or of the
    quotient by it (``mod_gamma``, ``mod_tau``) of ``R/b``.  ``subset`` is
    ``h`` for ``Gamma_(h)``, else ``("elements", S)`` or ``("closure", gens)``."""
    D = domain
    if kind in ("tau", "mod_tau") and subset[0] == "elements":
        elems = subset[1]
        s = next(t for t in elems if all(D.divides(r, t) for r in elems))
        part = D.gcd(b, s) if b or not s else D.one
    else:
        h = subset
        if kind in ("tau", "mod_tau"):
            h = D.one
            for t in subset[1]:
                h = D.mul(h, t)
        if not h:
            part = b  # every element is killed by the zero ideal
        elif not b:
            part = D.one
        else:
            part = D.one
            for p in prime_divisors_trial(D, h) if not D.is_unit(h) else ():
                while D.divides(D.mul(part, p), b):
                    part = D.mul(part, p)
    if kind in ("gamma", "tau"):
        return part
    if not part:
        return D.one
    return D.exact_div(b, part) if b else D.zero


def quotient_value_reference(domain, rank, factors, g, n, kind="identity", fixed=(0, ()),
                             layers=False, graded=None):
    """The cyclic orders of ``F(M / g^n M)``, with ``layers`` of
    ``F(g^(n-1) M / g^n M)``, or with ``graded`` of ``F(g^n M / g^n M')``
    (0 for a free summand, units for none) by the closed forms above.
    ``graded`` gives ``M' = (+) m_i e_i`` as one ``m_i`` per summand of
    ``M``, the free summands first.  ``kind`` is ``identity``; one of
    ``HOM_KINDS`` with ``fixed = (s, a_j)`` for the module ``A``; or one of
    ``TORSION_KINDS`` with ``fixed`` the subset of
    :func:`torsion_split_reference`."""
    D = domain
    gn = D.pow(g, n)
    summands = [gn] * rank + [D.gcd(d, gn) for d in factors]
    if layers:
        # R/(d) gives R/(gcd(d, g^n) / gcd(d, g^(n-1))), with d = 0 on a free
        # summand; both gcds are 0 only for g = 0 and n >= 2, a zero layer.
        g_below = D.pow(g, n - 1)
        below = [g_below] * rank + [D.gcd(d, g_below) for d in factors]
        summands = [D.exact_div(b, a) if a else D.one for b, a in zip(summands, below)]
    if graded is not None:
        # R/(d) gives R/(gcd(d, g^n m) / gcd(d, g^n)), with d = 0 on a free
        # summand; both gcds are 0 only for g = 0, n >= 1 and d = 0, where
        # g^n M is zero.
        ds = [D.zero] * rank + list(factors)
        summands = [D.exact_div(D.gcd(d, D.mul(gn, m)), a) if a else D.one
                    for d, m, a in zip(ds, graded, summands)]
    if kind in TORSION_KINDS:
        return [torsion_split_reference(D, b, kind, fixed) for b in summands]
    s, fixed_factors = fixed
    out = []
    for b in summands:
        if kind == "identity":
            out.append(b)
            continue
        if kind == "hom_from":
            out += [b] * s
        if b or kind == "ext1":
            out += [D.gcd(a, b) for a in fixed_factors]
    return out


def elementary_divisors_over(domain, orders, primes):
    """``(rank, sorted prime powers)`` of ``(+) R/(c)`` over the given primes;
    every order must be a product of them."""
    D = domain
    rank, powers = 0, []
    for c in orders:
        if D.is_zero(c):
            rank += 1
            continue
        for p in primes:
            q = D.one
            while D.divides(p, c):
                c, q = D.exact_div(c, p), D.mul(q, p)
            if not D.is_unit(q):
                powers.append(q)
        assert D.is_unit(c), f"{c!r} has a prime outside {primes!r}"
    return rank, sorted(powers, key=D.elem_sort_key)


def depth_over(domain, rank, powers, j):
    """Depth of ``(j)`` on ``R^rank (+) (+) R/(q)`` for prime powers ``q``."""
    D = domain
    if not j:
        in_prime = bool(rank or powers)
    else:
        j_primes = prime_divisors_trial(D, j) if not D.is_unit(j) else []
        in_prime = any(D.divides(p, q) for p in j_primes for q in powers)
    if in_prime:
        return 0
    return 1 if rank and not D.is_unit(j) else DEPTH_INF


def quotient_scan_reference(domain, rank, factors, g, ns, kind="identity", fixed=(0, ()),
                            j=None, layers=False, graded=None):
    """Per index: ``(rank, elementary divisors, primes of Ass, depth)`` of
    each value of a quotient scan, with ``layers`` of a layer scan, or with
    ``graded`` of a graded layer scan, plus the candidate primes, all from
    the closed forms; the depth is of ``(j)``, or ``None`` without ``j``."""
    D = domain
    primes = []
    for a in [g, *factors, *(fixed[1] if kind in HOM_KINDS else ()), *(graded or ())]:
        if a and not D.is_unit(a):
            primes += [p for p in prime_divisors_trial(D, a) if p not in primes]
    rows = []
    for n in ns:
        orders = quotient_value_reference(D, rank, factors, g, n, kind, fixed, layers, graded)
        r, powers = elementary_divisors_over(D, orders, primes)
        ass_gens = {D.zero} if r else set()
        ass_gens |= {p for p in primes if any(D.divides(p, q) for q in powers)}
        rows.append((r, powers, ass_gens, None if j is None else depth_over(D, r, powers, j)))
    return rows, primes


# Integer factoring as it stripped the trial primes before valuations by
# squaring: one ``n //= p`` per unit of multiplicity.

def valuation_reference(n, p):
    """``(v, n // p^v)`` for the multiplicity ``v`` of ``p`` in ``n != 0``."""
    v = 0
    while n % p == 0:
        v, n = v + 1, n // p
    return v, n


def factor_int_reference(n):
    """``{p: e}`` for ``n >= 1``, dividing out 2, 3, 5, 7, 11 and 13 one at a
    time, then splitting the rest with the library's primality test and rho."""
    factors = {}
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            factors[p], n = valuation_reference(n, p)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return factors


# The functor-layer constructions as they were before each value and map was
# built once, or by its shortest route: the torsion part with its quotient,
# its map factored through the target part's inclusion, the torsion quotient
# read off the whole part, a coherent value as the cokernel of the realized
# precomposition, a coherent map through realized generators whose values
# build their own Hom spaces, and homology through the kernel's inclusion
# (above, with the complex references).

def torsion_part_reference(gens, subset, n):
    """``(part, include, quotient)`` for the torsion part of ``N`` spanned by
    ``gens(subset, N)`` (:func:`~stab.invariants.gamma_gens` or
    ``tau_gens``): the submodule presented inline, then the cokernel of its
    inclusion."""
    g = gens(subset, n)
    part = FpModule(n.domain, g.cols, g.preimage(n.relations))
    include = Morphism(part, n, g)
    return part, include, n.quotient(include.mat)


def torsion_part_map_reference(gens, subset, g):
    """``g`` restricted to the torsion parts of its ends: ``g`` after the
    source part's inclusion, factored through the target part's."""
    include_a = torsion_part_reference(gens, subset, g.source)[1]
    include_b = torsion_part_reference(gens, subset, g.target)[1]
    return factor_through_reference(g.compose(include_a), include_b)


def torsion_quotient_reference(gens, subset, n):
    """``N`` modulo its torsion part, the cokernel of the part's inclusion."""
    return torsion_part_reference(gens, subset, n)[2]


def hom_generators(h):
    """The generator morphisms of a Hom space, each realized from its unit
    coordinates."""
    D, n = h.source.domain, len(h.pairs)
    return [h.realize([D.one if t == k else D.zero for t in range(n)]) for k in range(n)]


def hom_induced_reference(hk, hl, f=None, g=None):
    """The matrix of ``u -> g u f`` from ``hl = Hom(L, A)`` to
    ``hk = Hom(K, B)`` for ``f : K -> L`` and ``g : A -> B`` (identities
    when omitted): each generator of ``hl`` realized, composed and read
    back."""
    cols = []
    for u in hom_generators(hl):
        u = u if f is None else u.compose(f)
        cols.append(hk.coords(u if g is None else g.compose(u)))
    return Mat.from_cols(hk.source.domain, cols, len(hk.pairs))


def coherent_value_reference(functor, n):
    """A coherent ``F(N)`` as the cokernel of the realized precomposition;
    one Hom space serves both ends when ``K`` and ``L`` share a
    presentation."""
    f = functor.presenting
    hk = HomSpace(f.source, n)
    if not f.target.ambient:
        return hk.module
    hl = hk if f.source.relations == f.target.relations else HomSpace(f.target, n)
    return hk.module.quotient(hom_induced_reference(hk, hl, f=f))


def coherent_map_reference(functor, g):
    """``F(g)`` for a coherent ``F``: the realized push on ``Hom(K, -)``
    between the values evaluated afresh at both ends, each by the realized
    precomposition."""
    k = functor.presenting.source
    ha, hb = HomSpace(k, g.source), HomSpace(k, g.target)
    return Morphism(coherent_value_reference(functor, g.source),
                    coherent_value_reference(functor, g.target),
                    hom_induced_reference(hb, ha, g=g))


# The reports as one ``json.dumps`` call and a CSV loop, each row's cells
# rendered afresh from its value, primes and depth.

def _report_rows_reference(domain, rows):
    for row in rows:
        depth = row.depth_value
        depth = "" if depth is None else "inf" if depth == DEPTH_INF else str(int(depth))
        factors = ["0"] * row.value.rank + [domain.elem_str(a) for a in row.value.factors]
        yield row.n, factors, [repr(p) for p in row.ass_set], depth


def report_csv_reference(sc, outcome):
    lines = ["n,invariant_factors,ass,depth"]
    for n, factors, ass, depth in _report_rows_reference(sc.domain, outcome.result.rows):
        lines.append(f"{n},{';'.join(factors)},{';'.join(ass)},{depth}")
    return "\n".join(lines) + "\n"


def _verdict_reference(report):
    if report is None:
        return None
    return {"status": report.status, "n0": report.n0, "period": report.period,
            "window": report.window}


def report_json_reference(sc, outcome):
    rows = [{"n": n, "invariant_factors": factors, "ass": ass, "depth": depth}
            for n, factors, ass, depth in _report_rows_reference(sc.domain,
                                                                 outcome.result.rows)]
    doc = {
        "name": sc.name,
        "backend": sc.domain.descriptor(),
        "horizon": outcome.horizon,
        "window": outcome.window,
        "rows": rows,
        "ass_verdict": _verdict_reference(outcome.result.ass_report),
        "depth_verdict": _verdict_reference(outcome.result.depth_report),
        "artin_rees_d": outcome.artin_d,
        "annihilator_checks": len(outcome.result.rows),
        "expect_ok": outcome.expect_ok if sc.expect is not None else None,
        "expect_failures": list(outcome.expect_failures),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Finite modules over Z and GF(2)[x] by enumeration, sharing no code with the
# library's arithmetic or normal forms.  A module killed by ``e`` is the box
# ``(R/e)^k`` modulo the subgroup ``H`` that its relation columns generate.
# A residue mod ``e`` is an int: over Z the residue itself, over GF(2)[x] a
# bit mask whose bit i is the coefficient of x^i, with carry-less products.

def _gf2_mask(a):
    return sum(c << i for i, c in enumerate(a))


def _gf2_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def _gf2_mod(a, e):
    while a.bit_length() >= e.bit_length():
        a ^= e << (a.bit_length() - e.bit_length())
    return a


class EnumeratedModule:
    """``M``, killed by ``e``, as the vectors of ``(R/e)^k`` and the subgroup
    ``H`` of those that are zero in ``M``, closed by breadth-first search from
    zero: add a relation column, or (over GF(2)[x]) multiply by x.  Both steps
    stay in the submodule, and by Horner's rule they reach all of it."""

    def __init__(self, module, e):
        D = module.domain
        self.integers = D.kind == "integers"
        assert self.integers or D.p == 2
        self.e = abs(e) if self.integers else _gf2_mask(e)
        size = self.e if self.integers else 1 << (self.e.bit_length() - 1)
        self.box = list(product(range(size), repeat=module.ambient))
        rel = module.relations
        cols = [tuple(self.residue(rel.data[i][j]) for i in range(rel.rows))
                for j in range(rel.cols)]
        steps = [lambda v, c=c: self.add(v, c) for c in cols]
        if not self.integers:
            steps.append(lambda v: self.scale(0b10, v))
        zero = (0,) * module.ambient
        self.zero_set, frontier = {zero}, [zero]
        while frontier:
            fresh = {step(v) for v in frontier for step in steps} - self.zero_set
            self.zero_set |= fresh
            frontier = fresh

    def residue(self, a):
        return a % self.e if self.integers else _gf2_mod(_gf2_mask(a), self.e)

    def add(self, v, w):
        if self.integers:
            return tuple((x + y) % self.e for x, y in zip(v, w))
        return tuple(x ^ y for x, y in zip(v, w))

    def scale(self, c, v):
        """``c v`` for a residue ``c``."""
        if self.integers:
            return tuple(c * x % self.e for x in v)
        return tuple(_gf2_mod(_gf2_mul(c, x), self.e) for x in v)

    def image(self, mat, v):
        """``mat v`` in this box, for ``v`` in the box of a module killed by
        the same ``e``: the matrix read residue by residue."""
        out = (0,) * mat.rows
        for j, c in enumerate(v):
            out = self.add(out, self.scale(c, tuple(self.residue(row[j]) for row in mat.data)))
        return out

    def classes(self):
        """Each vector of the box mapped to one representative of its class
        modulo ``H``."""
        rep = {}
        for v in self.box:
            if v not in rep:
                rep.update((self.add(v, h), v) for h in self.zero_set)
        return rep

    def killed(self, killers):
        """The vectors ``v`` with ``c v`` in ``H`` for some ring element ``c``
        of ``killers``: the lift of the part they kill."""
        cs = [self.residue(c) for c in killers]
        return {v for v in self.box if any(self.scale(c, v) in self.zero_set for c in cs)}

    def counts(self, lift, zero, powers):
        """``|L/Z|`` and, per ring element ``q`` of ``powers``, the number of
        classes of ``L/Z`` that ``q`` kills, for lifts ``Z <= L`` of
        submodules of ``M`` given as vector sets."""
        qs = [self.residue(q) for q in powers]
        killed = [sum(self.scale(q, v) in zero for v in lift) for q in qs]
        return len(lift) // len(zero), [k // len(zero) for k in killed]


def invariant_counts(domain, factors, powers):
    """``|M|`` and, per ring element ``q`` of ``powers``, the number of
    elements of ``M = (+) R/(d)`` killed by ``q``: ``|R/gcd(d, q)|`` per
    summand.  Over Z or GF(2)[x] only, with no free rank."""
    if domain.kind == "integers":
        def norm_of_gcd(d, q):
            return math.gcd(d, q)
    else:
        def norm_of_gcd(d, q):
            a, b = _gf2_mask(d), _gf2_mask(q)
            while b:
                a, b = b, _gf2_mod(a, b)
            return 1 << (a.bit_length() - 1)
    order = math.prod(norm_of_gcd(d, d) for d in factors)
    return order, [math.prod(norm_of_gcd(d, q) for d in factors) for q in powers]
