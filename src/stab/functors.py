"""Evaluable covariant R-linear functors on finitely presented modules.

Variants:

* identity, ``Hom(M, -)``;
* coherent functors presented by a morphism ``f : K -> L``, evaluated as
  ``coker(Hom(L, N) -> Hom(K, N))``;
* homology at the middle of a tensored three-term complex, built once in
  :class:`TensoredHomology` for two kinds of complex: complexes of finitely
  presented modules (:class:`ComplexHomology`, which houses ``Tor_i(M, -)``
  through a free resolution) and middle-finite complexes whose ends may be
  localized (:class:`MiddleFiniteFunctor`, which houses ``Gamma_(g)`` as the
  homology of ``0 -> R -> R[1/g]``);
* ``Gamma_I``, ``tau_S`` and their quotient companions, which share one body
  for the torsion part and one for the quotient;
* the oscillating functor on the skeleton of finite torsion modules, with
  per-prime exponent sets.

Every functor is immutable and pure: ``F(N)`` returns a fresh module with a
deterministic presentation, and ``F.map(g)`` returns the induced morphism
between the recomputed values.
"""

from __future__ import annotations

from typing import NamedTuple

from .domains import int_in_range
from .matrices import Mat
from .modules import (FpModule, Morphism, Ideal, HomSpace,
                      _diag_module, hom_induced, loc_tensor, tensor_mor,
                      sub_contains, DomainViolation, NotWellDefined)
from .invariants import gamma, tau


def homology_at(f, h):
    """Homology ``ker(h)/im(f)`` at the middle of ``A --f--> B --h--> C``.

    Returns ``(H, include)`` where ``include : K -> B`` embeds the kernel
    whose generators present ``H``.
    """
    k, incl = h.kernel()
    f2 = f.factor_through(incl)
    hmod = FpModule(k.domain, k.ambient, k.relations.hstack(f2.mat))
    return hmod, incl


class Functor:
    """Interface: ``F(N)`` evaluates on objects, ``F.map(g)`` on morphisms."""

    def __call__(self, n):
        raise NotImplementedError

    def map(self, g):
        raise NotImplementedError


class IdentityFunctor(Functor):
    def __call__(self, n):
        return n

    def map(self, g):
        return g

    def __repr__(self):
        return "Id"


def _hom_push(k, g):
    """``(Hom(k, source), Hom(k, target), matrix of g_*)`` on the Hom generators."""
    ha, hb = HomSpace(k, g.source), HomSpace(k, g.target)
    cols = [hb.coords(g.compose(u)) for u in ha.generators()]
    return ha, hb, Mat.from_cols(k.domain, cols, len(hb.pairs))


class HomFrom(Functor):
    """``Hom(M, -)``."""

    def __init__(self, m):
        self.m = m

    def __call__(self, n):
        return HomSpace(self.m, n).module

    def map(self, g):
        ha, hb, mat = _hom_push(self.m, g)
        return Morphism(ha.module, hb.module, mat)

    def __repr__(self):
        return f"Hom({self.m!r}, -)"


class CoherentFunctor(Functor):
    """``coker(h_L -> h_K)`` presented by a morphism ``f : K -> L``.

    >>> from stab.domains import ZZ
    >>> from stab.modules import FpModule, Morphism
    >>> from stab.matrices import Mat
    >>> r = FpModule.free(ZZ, 1)
    >>> f = Morphism(r, r, Mat(ZZ, [[2]]))
    >>> CoherentFunctor(f)(FpModule.cyclic(ZZ, 4)).decompose()
    (0, [2])
    """

    def __init__(self, presenting):
        self.presenting = presenting

    def __call__(self, n):
        value, _ = hom_induced(self.presenting, n).cokernel()
        return value

    def map(self, g):
        mat = _hom_push(self.presenting.source, g)[2]
        return Morphism(self(g.source), self(g.target), mat)

    def __repr__(self):
        return f"coker(h_{self.presenting.target!r} -> h_{self.presenting.source!r})"


class TensoredHomology(Functor):
    """``N -> H(A (x) N -> B (x) N -> C (x) N)`` at the middle term ``B``.

    Subclasses supply ``middle`` (the module ``B``) and ``_tensored(n)``, the
    two tensored maps; a morphism ``g`` acts on the middle as ``id_B (x) g``.
    """

    def __call__(self, n):
        value, _ = homology_at(*self._tensored(n))
        return value

    def map(self, g):
        fa, incl_a = homology_at(*self._tensored(g.source))
        fb, incl_b = homology_at(*self._tensored(g.target))
        mid = tensor_mor(Morphism.identity(self.middle), g)
        carried = mid.compose(incl_a).factor_through(incl_b)
        return Morphism(fa, fb, carried.mat)


class ComplexHomology(TensoredHomology):
    """``N -> H_i(P (x) N)`` for a complex ``P2 -> P1 -> P0`` with zero composite.

    ``d2`` must end in the presentation of ``P1`` that ``d1`` starts from.

    ``H_0`` and ``H_2`` are middle homology of the complex extended by a zero
    map out of ``P0`` or into ``P2``.
    """

    def __init__(self, d2, d1, index):
        if index not in (0, 1, 2):
            raise ValueError("homology index must be 0, 1 or 2")
        if d2.target.relations != d1.source.relations:
            raise ValueError("complex maps do not meet in one middle term")
        if not d1.compose(d2).is_zero():
            raise ValueError("complex has nonzero composite")
        zero = FpModule.zero(d1.source.domain)
        self.maps = ((d1, Morphism.zero_map(d1.target, zero)), (d2, d1),
                     (Morphism.zero_map(zero, d2.source), d2))[index]
        self.middle = self.maps[1].source
        self.index = index

    def _tensored(self, n):
        # Each ``P_i (x) N`` once: the middle term ends both maps.
        d, e = self.maps
        ident = Mat.identity(n.domain, n.ambient)
        b_n = self.middle.tensor(n)
        return (Morphism(d.source.tensor(n), b_n, d.mat.kron(ident), check=False),
                Morphism(b_n, e.target.tensor(n), e.mat.kron(ident), check=False))

    def __repr__(self):
        return f"H_{self.index}(P (x) -)"


def presentation_map(m):
    """An injective presentation ``R^s -> R^k`` with cokernel ``m``."""
    D = m.domain
    a = m.relations.span_basis()
    return Morphism(FpModule.free(D, a.cols), FpModule.free(D, m.ambient), a)


def ext_functor(m, i=1):
    """``Ext^i(M, -)`` for i in {0, 1}; i = 1 is coherent on a free presentation."""
    if i == 0:
        return HomFrom(m)
    if i == 1:
        return CoherentFunctor(presentation_map(m))
    raise ValueError("projective dimension over these backends is at most 1")


def tor_functor(m, i=1):
    """``Tor_i(M, -)`` for i in {0, 1} via the tensored free resolution."""
    if i not in (0, 1):
        raise ValueError("projective dimension over these backends is at most 1")
    pres = presentation_map(m)
    d2 = Morphism.zero_map(FpModule.zero(m.domain), pres.source)
    return ComplexHomology(d2, pres, i)


class _TorsionSplitFunctor(Functor):
    """A functor read off ``split(subset, N)``, a :class:`TorsionPart`.

    Subclasses set ``split`` to :func:`gamma` or :func:`tau` and ``label`` to
    the name shown before the subset.
    """

    def __init__(self, subset):
        self.subset = subset

    def __repr__(self):
        return f"{self.label}_{self.subset!r}"


class _TorsionPartFunctor(_TorsionSplitFunctor):
    """The torsion part; maps restrict to it."""

    def __call__(self, n):
        return self.split(self.subset, n).part

    def map(self, g):
        a, b = self.split(self.subset, g.source), self.split(self.subset, g.target)
        return g.compose(a.include).factor_through(b.include)


class _TorsionQuotientFunctor(_TorsionSplitFunctor):
    """The quotient by the torsion part; maps keep their matrix."""

    def __call__(self, n):
        return self.split(self.subset, n).quotient

    def map(self, g):
        qa = self.split(self.subset, g.source).quotient
        qb = self.split(self.subset, g.target).quotient
        return Morphism(qa, qb, g.mat)


class GammaFunctor(_TorsionPartFunctor):
    split, label = staticmethod(gamma), "Gamma"


class ModGamma(_TorsionQuotientFunctor):
    split, label = staticmethod(gamma), "Id/Gamma"


class TauFunctor(_TorsionPartFunctor):
    split, label = staticmethod(tau), "tau"


class ModTau(_TorsionQuotientFunctor):
    split, label = staticmethod(tau), "Id/tau"


class EndSummand(NamedTuple):
    """One summand of a middle-finite complex end; localized when invert is set."""

    module: FpModule
    invert: object = None


def _tensor_ends(ends, n):
    """The direct sum of ``E (x) N`` over end summands, localized ones included."""
    out = FpModule.zero(n.domain)
    for s in ends:
        out = out.direct_sum(s.module.tensor(n) if s.invert is None
                             else loc_tensor(s.module, s.invert, n))
    return out


class MiddleFiniteFunctor(TensoredHomology):
    """``N -> H(sigma (x) N)`` for a middle-finite complex ``sigma = A -> B -> C``.

    ``B`` is finitely presented; the ends are direct sums of end summands,
    possibly localized.  The maps are block matrices of ring elements between
    ambient generators; blocks into or out of a localized summand are composed
    with the canonical localization map.  The composite is checked to vanish,
    summand by summand, up to the localization (an element of ``C[1/x]`` is
    zero iff it is x-power torsion in ``C``).  The tensored maps are checked
    on every evaluation, because maps of localized ends may not descend.
    A map given as ``None`` is zero.
    """

    def __init__(self, a_ends, b, c_ends, d_a, d_b):
        self.a_ends = tuple(a_ends)
        self.middle = b
        self.c_ends = tuple(c_ends)
        for side, ends in (("a", self.a_ends), ("c", self.c_ends)):
            for i, summand in enumerate(ends):
                if summand.invert is not None and b.domain.is_zero(summand.invert):
                    raise ValueError(f"{side}[{i}].invert: cannot invert zero")
        a_dim = sum(s.module.ambient for s in self.a_ends)
        c_dim = sum(s.module.ambient for s in self.c_ends)
        d_a = Mat.zero(b.domain, b.ambient, a_dim) if d_a is None else d_a
        d_b = Mat.zero(b.domain, c_dim, b.ambient) if d_b is None else d_b
        if d_a.rows != b.ambient or d_a.cols != a_dim:
            raise ValueError("d_a has the wrong shape")
        if d_b.rows != c_dim or d_b.cols != b.ambient:
            raise ValueError("d_b has the wrong shape")
        self.d_a = d_a
        self.d_b = d_b
        comp = d_b @ d_a
        row = 0
        for summand in self.c_ends:
            module = summand.module
            block = comp.take_rows(range(row, row + module.ambient))
            row += module.ambient
            if summand.invert is None:
                ok = module.contains(block)
            else:
                torsion = gamma(Ideal(b.domain, summand.invert), module)
                ok = sub_contains(module, torsion.include.mat, block)
            if not ok:
                raise ValueError("middle-finite complex has nonzero composite")

    def _tensored(self, n):
        localized = any(s.invert is not None for s in self.a_ends + self.c_ends)
        if localized and not n.is_torsion():
            raise DomainViolation("localized ends require a torsion argument")
        b_n = self.middle.tensor(n)
        a_n = _tensor_ends(self.a_ends, n)
        c_n = _tensor_ends(self.c_ends, n)
        ident = Mat.identity(n.domain, n.ambient)
        try:
            f = Morphism(a_n, b_n, self.d_a.kron(ident))
            h = Morphism(b_n, c_n, self.d_b.kron(ident))
        except NotWellDefined as exc:
            raise DomainViolation(f"maps do not descend to localizations: {exc}") from exc
        return f, h

    def __repr__(self):
        return (f"H(MiddleFinite({len(self.a_ends)} -> {self.middle!r} -> "
                f"{len(self.c_ends)}) (x) -)")


def gamma_as_middle_finite(ideal):
    """``Gamma_(g)`` as homology of ``0 -> R -> R[1/g]``."""
    D = ideal.domain
    r = FpModule.free(D, 1)
    return MiddleFiniteFunctor([], r, [EndSummand(r, ideal.gen)], None, Mat.identity(D, 1))


class ExponentSet:
    """A subset of the positive integers: finite members plus progressions a + bN."""

    __slots__ = ("members", "progressions")

    def __init__(self, members=(), progressions=()):
        members = frozenset(int_in_range(e, 1, what="members") for e in members)
        progs = [(int_in_range(a, 1, what="progression start"),
                  int_in_range(b, 1, what="progression step")) for a, b in progressions]
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "progressions", tuple(progs))

    def __setattr__(self, name, value):
        raise AttributeError("ExponentSet is immutable")

    def __contains__(self, e):
        if e in self.members:
            return True
        return any(e >= a and (e - a) % b == 0 for a, b in self.progressions)

    def to_json(self):
        doc = {}
        if self.members:
            doc["members"] = sorted(self.members)
        if self.progressions:
            doc["progressions"] = [list(p) for p in self.progressions]
        return doc

    def __repr__(self):
        parts = [str(e) for e in sorted(self.members)]
        parts += [f"{a}+{b}N" for a, b in self.progressions]
        return "{" + ", ".join(parts) + "}"


EMPTY_EXPONENTS = ExponentSet()


class SkeletonFormError(DomainViolation):
    """An object or morphism endpoint is not a sorted prime-power presentation."""


def skeleton(n):
    """Normalize a torsion module into its skeleton: sorted prime-power summands.

    Returns ``(skel, to_skel, from_skel)`` with mutually inverse morphisms;
    the skeleton presentation is ``diag(p1^e1, ..., pj^ej)`` ordered by prime
    then exponent.
    """
    D = n.domain
    pairs = _prime_power_pairs(n)
    dim = len(n.factors)
    skel_cols = []
    split = [[D.zero] * dim for _ in range(len(pairs))]
    crt = [[D.zero] * len(pairs) for _ in range(dim)]
    for r, (p, e, idx) in enumerate(pairs):
        q = D.pow(p, e)
        col = [D.zero] * len(pairs)
        col[r] = q
        skel_cols.append(col)
        split[r][idx] = D.one
        d = n.factors[idx]
        m = D.exact_div(d, q)
        _, u, _ = D.gcd_ext(m, q)
        crt[idx][r] = D.divmod(D.mul(u, m), d)[1]
    skel = FpModule(D, len(pairs), Mat.from_cols(D, skel_cols, len(pairs)))
    split_m = Mat(D, split, len(pairs), dim)
    crt_m = Mat(D, crt, dim, len(pairs))
    to_skel = Morphism(n, skel, split_m @ n._to_dec)
    from_skel = Morphism(skel, n, n._from_dec @ crt_m)
    return skel, to_skel, from_skel


def _prime_power_pairs(n):
    """``(p, e, factor index)`` per prime power of ``n``, in skeleton order."""
    if not n.is_torsion():
        raise DomainViolation("skeleton is defined for torsion modules only")
    D = n.domain
    pairs = [(p, e, idx) for idx, d in enumerate(n.factors) for p, e in D.factor(d)]
    pairs.sort(key=lambda t: (D.prime_key(t[0]), t[1], t[2]))
    return pairs


def skeleton_pairs(module):
    """Read ``[(p, e), ...]`` off a skeleton-form module, or raise."""
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
        p, e = fac[0]
        if D.canon(d)[0] != d:
            raise SkeletonFormError("diagonal entries must be canonical")
        pairs.append((p, e))
    keys = [(D.prime_key(p), e) for p, e in pairs]
    if keys != sorted(keys):
        raise SkeletonFormError("summands are not canonically sorted")
    return pairs


class OscillatingFunctor(Functor):
    """Per-prime exponent rules on the skeleton of finite torsion modules.

    ``F(R/p^e) = R/p`` when ``e`` lies in the exponent set of ``p`` and 0
    otherwise; on morphisms only the blocks between summands with the same
    prime and same exponent survive, reduced mod p.  Arbitrary torsion inputs
    are normalized into skeleton form first and morphisms are conjugated by
    the normalization isomorphisms.
    """

    def __init__(self, domain, rules):
        self.domain = domain
        canon_rules = {}
        for p, exps in rules.items():
            if domain.is_zero(p):
                raise ValueError("0 is not prime")
            c = domain.canon(p)[0]
            fac = domain.factor(c)
            if len(fac) != 1 or fac[0][1] != 1:
                raise ValueError(f"{domain.elem_str(p)} is not prime")
            canon_rules[c] = exps
        self.rules = canon_rules

    def exponents_of(self, p):
        return self.rules.get(p, EMPTY_EXPONENTS)

    def eval_skeleton(self, module):
        """Object rule on a module already in skeleton form."""
        pairs = skeleton_pairs(module)
        kept = [p for (p, e) in pairs if e in self.exponents_of(p)]
        return _diag_module(self.domain, kept)

    def map_skeleton(self, g):
        """Morphism rule when both endpoints are in skeleton form."""
        D = self.domain
        spairs = skeleton_pairs(g.source)
        tpairs = skeleton_pairs(g.target)
        skeep = [i for i, (p, e) in enumerate(spairs) if e in self.exponents_of(p)]
        tkeep = [j for j, (p, e) in enumerate(tpairs) if e in self.exponents_of(p)]
        fa = _diag_module(D, [spairs[i][0] for i in skeep])
        fb = _diag_module(D, [tpairs[j][0] for j in tkeep])
        out = [[D.zero] * len(skeep) for _ in range(len(tkeep))]
        for col, i in enumerate(skeep):
            for row, j in enumerate(tkeep):
                p_i, e_i = spairs[i]
                p_j, e_j = tpairs[j]
                if p_i == p_j and e_i == e_j:
                    out[row][col] = D.divmod(g.mat.data[j][i], p_j)[1]
        return Morphism(fa, fb, Mat(D, out, len(tkeep), len(skeep)))

    def __call__(self, n):
        # eval_skeleton of the skeleton, without its transforms.
        return _diag_module(self.domain, [p for p, e, _ in _prime_power_pairs(n)
                                          if e in self.exponents_of(p)])

    def map(self, g):
        _, _, from_a = skeleton(g.source)
        _, to_b, _ = skeleton(g.target)
        conj = to_b.compose(g).compose(from_a)
        return self.map_skeleton(conj)

    def __repr__(self):
        inner = ", ".join(f"{self.domain.elem_str(p)}: {s!r}" for p, s in self.rules.items())
        return "Osc{" + inner + "}"
