"""The constructive category of finitely presented modules over a backend.

A module is ``R^k / <columns of a relation matrix>``.  Submodules are always
given by generator matrices inside an ambient presentation: a map's kernel is
the :meth:`FpModule.submodule` of ``mat.preimage(target.relations)``, its
image that of ``mat``, and its cokernel ``target.quotient(mat)``.
Subquotients route through syzygy computation on augmented matrices, and
membership through ``solve`` or, when no relation column has two nonzeros,
one divisibility test per entry.  :class:`HomSpace` reads the map that
composing with ``f`` and ``g`` induces between Hom spaces off one product
per side (:meth:`HomSpace.induced`), without realizing a generator.

The constructor prunes the presentation: a relation matrix in which no
column has two nonzero entries (``[diag(d) | g^n I]`` from
:meth:`FpModule.power_quotient`, the Kronecker blocks of a tensor of diagonal
modules) is replaced by one column per occupied row holding the gcd of that
row, which spans the same relations over a PID.  Any other matrix is kept as
given.  Generators, morphism matrices and invariants are unchanged; every
later normal form runs on the smaller matrix.

``rank`` and ``factors`` are computed on first read from the Smith diagonal
of the relations, without transforms; the decomposition transforms run the
full Smith form on their own first read.  So kernels and carriers that only
serve as presentations pay for neither, and invariant-only reads never pay
for the transforms.  Two modules are isomorphic exactly when their
``(rank, factors)`` agree.  Immutable objects fill their slots, lazy
ones too, through the member descriptors (see :mod:`stab.matrices`).

>>> from stab.domains import ZZ
>>> M = FpModule.from_relations(ZZ, [[2, 4], [6, 8]])
>>> M.rank, list(M.factors)
(0, [2, 4])
>>> T = FpModule.free(ZZ, 1).tensor(M)
>>> (T.rank, T.factors) == (M.rank, M.factors)
True
"""

from __future__ import annotations

from .domains import BackendMismatch, int_in_range
from .matrices import Mat, _Frozen, _row_gcds, _slot_setters, _support


class NotWellDefined(ValueError):
    """A generator-image matrix does not send relations into relations."""


class SubmoduleError(ValueError):
    """A submodule precondition (such as W contained in V) fails."""


class DomainViolation(ValueError):
    """An input lies outside the domain of the requested operation."""


class Ideal(_Frozen):
    """A principal ideal, stored by its canonical generator (possibly zero)."""

    __slots__ = ("domain", "gen", "_powers")

    def __init__(self, domain, gen):
        _set_ideal_domain(self, domain)
        _set_gen(self, domain.canon(gen)[0])

    def power_gen(self, n):
        """Generator of the n-th power; ``I^0 = R`` even for the zero ideal.

        The ideal keeps ``[1, g, g^2, ...]`` (outside equality and hashing)
        and extends it by one product with ``g`` per missing power, so a scan
        asking for ``g^1, g^2, ...`` in order pays one product per row.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        try:
            powers = self._powers
        except AttributeError:
            powers = [self.domain.one]
            _set_powers(self, powers)
        mul, g = self.domain.mul, self.gen
        while len(powers) <= n:
            powers.append(mul(powers[-1], g))
        return powers[n]

    def is_zero(self):
        return self.domain.is_zero(self.gen)

    def contains(self, elem):
        return self.domain.divides(self.gen, elem)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.domain == other.domain
                and self.gen == other.gen)

    def __hash__(self):
        return hash((self.domain, self.gen))

    def __repr__(self):
        return f"({self.domain.elem_str(self.gen)})"


_set_ideal_domain, _set_gen, _set_powers = _slot_setters(Ideal)


class FpModule(_Frozen):
    """A finitely presented module: ambient free rank plus a relation matrix."""

    __slots__ = ("domain", "ambient", "relations", "rank", "factors",
                 "_to_dec", "_from_dec")

    def __init__(self, domain, ambient, relations=None):
        if relations is None:
            relations = Mat.zero(domain, ambient, 0)
        if relations.rows != ambient:
            raise ValueError("relation matrix must have one row per ambient generator")
        if relations.domain != domain:
            raise BackendMismatch("relations over wrong backend")
        _set_module_domain(self, domain)
        _set_ambient(self, ambient)
        _set_relations(self, _pruned(relations))

    def __getattr__(self, name):
        # Reached only for unset slots: the invariants and the transforms are
        # each filled in on first read.
        if name in ("rank", "factors"):
            self._set_invariants(self.relations.smith_diagonal())
        elif name in ("_to_dec", "_from_dec"):
            self._decompose()
        else:
            raise AttributeError(name)
        return object.__getattribute__(self, name)

    def _decompose(self):
        dmat, u, _, uinv = self.relations._snf_full()
        order = self._set_invariants(dmat.diagonal())
        # Rows with unit diagonal entries present generators that vanish, so
        # dropping them from the transforms is an isomorphism.
        _set_to_dec(self, u.take_rows(order))
        _set_from_dec(self, uinv.take_cols(order))

    def _set_invariants(self, diag):
        # Sets rank and factors from the Smith diagonal; returns the rows
        # that carry them, torsion rows first.
        D = self.domain
        torsion_rows = [i for i, d in enumerate(diag)
                        if not D.is_zero(d) and not D.is_unit(d)]
        free_rows = [i for i in range(self.ambient)
                     if i >= len(diag) or D.is_zero(diag[i])]
        _set_rank(self, len(free_rows))
        _set_factors(self, tuple(diag[i] for i in torsion_rows))
        return torsion_rows + free_rows

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_relations(cls, domain, rows, ambient=None):
        """Relation rows, one per ambient generator; no rows present a free module."""
        if ambient is None:
            ambient = len(rows)
        if not rows:
            return cls(domain, ambient, Mat.zero(domain, ambient, 0))
        if len(rows) != ambient:
            raise ValueError(f"relations: {len(rows)} rows but ambient is {ambient}")
        return cls(domain, ambient, Mat(domain, rows, ambient, len(rows[0])))

    @classmethod
    def free(cls, domain, rank):
        return cls(domain, rank)

    @classmethod
    def zero(cls, domain):
        return cls(domain, 0)

    @classmethod
    def from_invariants(cls, domain, rank, factors):
        """``R^rank (+) R/(d)`` for each listed factor, torsion generators first."""
        factors = [domain.canon(d)[0] for d in factors]
        if any(domain.is_zero(d) for d in factors):
            raise ValueError("zero invariant factor; use rank for free summands")
        factors = [d for d in factors if not domain.is_unit(d)]
        return _diag_module(domain, factors + [domain.zero] * rank)

    @classmethod
    def cyclic(cls, domain, d):
        """R/(d); the free module of rank one when d == 0."""
        if domain.is_zero(d):
            return cls.free(domain, 1)
        return cls.from_invariants(domain, 0, [d])

    # -- structure ------------------------------------------------------------

    def is_torsion(self):
        return self.rank == 0

    def contains(self, gens):
        """Whether every column of ``gens`` lies in the relation span (is zero here).

        Relations with no column of two nonzeros span ``(g_i) e_i`` over each
        occupied row's gcd ``g_i``, so an entry of ``gens`` must be divisible
        by its row's gcd, or zero in a row with none.  Others use ``solve``.
        """
        D, rel = self.domain, self.relations
        support = _support(rel)
        if support is None or gens.rows != rel.rows or gens.domain is not D:
            return rel.solve(gens) is not None
        gcds = _row_gcds(D, support)
        return all(not a or i in gcds and D.divides(gcds[i], a)
                   for i, row in enumerate(gens.data) for a in row)

    # -- constructions ----------------------------------------------------------

    def direct_sum(self, other):
        self._check(other)
        if not (self.ambient and other.ambient):
            return self if other.ambient == 0 else other
        D = self.domain
        top = self.relations.hstack(Mat.zero(D, self.ambient, other.relations.cols))
        bot = Mat.zero(D, other.ambient, self.relations.cols).hstack(other.relations)
        return FpModule(D, self.ambient + other.ambient, top.vstack(bot))

    def tensor(self, other):
        """Tensor product; generator ``(i, j)`` sits at index ``i * other.ambient + j``.

        >>> from stab.domains import ZZ
        >>> a = FpModule.cyclic(ZZ, 4).tensor(FpModule.cyclic(ZZ, 6))
        >>> a.rank, list(a.factors)
        (0, [2])
        """
        self._check(other)
        D = self.domain
        left = self.relations.kron(Mat.identity(D, other.ambient))
        right = Mat.identity(D, self.ambient).kron(other.relations)
        return FpModule(D, self.ambient * other.ambient, left.hstack(right))

    def quotient(self, gens):
        """``M / <gens>`` on the same generators; ``M`` itself when ``gens``
        has no columns."""
        relations = self.relations.hstack(gens)
        return FpModule(self.domain, self.ambient, relations) if gens.cols else self

    def power_quotient(self, ideal, n):
        """``M / I^n M``; for the zero ideal and n >= 1 this is M itself."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self.quotient(Mat.scalar(self.domain, self.ambient, ideal.power_gen(n)))

    def subquotient(self, u, v, w, ideal, n):
        """``(<U> + I^n <V>) / I^n <W>`` inside this module; requires W inside V.

        Columns of ``u``, ``v``, ``w`` are ambient vectors read modulo the
        relations.  The result is presented on the generators ``[U | g^n V]``.
        Every call checks ``W <= V``; a family of these over ``n`` checks it
        once with :meth:`check_subquotient` and then builds each value with
        :meth:`_subquotient`.
        """
        self.check_subquotient(u, v, w)
        return self._subquotient(u, v, w, ideal, n)

    def check_subquotient(self, u, v, w):
        """Raise unless ``u``, ``v``, ``w`` live in the ambient module and W
        lies in V; an identity ``v`` spans the whole module and holds any W."""
        for m_ in (u, v, w):
            if m_.rows != self.ambient:
                raise ValueError("submodule generators must live in the ambient module")
        if not (v._is_identity() or sub_contains(self, v, w)):
            raise SubmoduleError("W is not contained in V")

    def _subquotient(self, u, v, w, ideal, n):
        # ``subquotient`` after its check.
        g = ideal.power_gen(n)
        gens = u.hstack(v.scale(g))
        syz = gens.preimage(w.scale(g).hstack(self.relations))
        return FpModule(self.domain, gens.cols, syz)

    def submodule(self, gens):
        """Presentation of the submodule spanned by the given generator columns.

        Returns ``(S, include)`` with ``include`` the inclusion into this module.
        """
        sub = self.spanned(gens)
        return sub, Morphism(sub, self, gens)

    def spanned(self, gens):
        """The submodule of :meth:`submodule` without its inclusion: the span
        of the columns of ``gens``, presented on them by one preimage."""
        if gens.rows != self.ambient:
            raise ValueError("generators must live in the ambient module")
        return FpModule(self.domain, gens.cols, gens.preimage(self.relations))

    def _check(self, other):
        if self.domain != other.domain:
            raise BackendMismatch("modules over different backends")

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        """The invariants ``{"rank", "factors"}``; :meth:`from_json` reads them
        back as the diagonal module isomorphic to this one."""
        D = self.domain
        return {"rank": self.rank, "factors": [D.elem_to_json(d) for d in self.factors]}

    @classmethod
    def from_json(cls, domain, doc):
        if not isinstance(doc, dict):
            raise ValueError("module must be an object")
        if "relations" in doc:
            rows = [[domain.elem_from_json(a) for a in _array(row, "relations")]
                    for row in _array(doc["relations"], "relations")]
            ambient = int_in_range(doc.get("ambient", len(rows)), 0, MAX_GENERATORS, "ambient")
            return cls.from_relations(domain, rows, ambient)
        rank = int_in_range(doc.get("rank", 0), 0, MAX_GENERATORS, "rank")
        factors = _array(doc.get("factors", []), "factors")
        if rank + len(factors) > MAX_GENERATORS:
            raise ValueError(f"factors: rank {rank} and {len(factors)} factors exceed "
                             f"{MAX_GENERATORS} generators")
        factors = [domain.elem_from_json(d) for d in factors]
        return cls.from_invariants(domain, rank, factors)

    def __repr__(self):
        D = self.domain
        parts = ["R"] * self.rank + [f"R/({D.elem_str(d)})" for d in self.factors]
        return " + ".join(parts) if parts else "0"


(_set_module_domain, _set_ambient, _set_relations, _set_rank, _set_factors,
 _set_to_dec, _set_from_dec) = _slot_setters(FpModule)

# The most ambient generators a serialized module may have.  ``{"rank": r}``
# costs a document a few bytes, but every dense matrix over ``R^r`` is r-by-r.
MAX_GENERATORS = 1024


def _array(value, key):
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected an array, got {value!r}")
    return value


class Morphism(_Frozen):
    """A module map given by a generator-image matrix.

    The matrix sends ambient generators of the source to ambient vectors of
    the target; construction verifies well-definedness (every source relation
    maps into the target relation span).  Equality is equality modulo the
    target relations.
    """

    __slots__ = ("source", "target", "mat")

    def __init__(self, source, target, mat, check=True):
        if mat.rows != target.ambient or mat.cols != source.ambient:
            raise ValueError("generator-image matrix has wrong shape")
        if source.domain != target.domain or mat.domain != source.domain:
            raise BackendMismatch("morphism backend mismatch")
        _set_source(self, source)
        _set_target(self, target)
        _set_mat(self, mat)
        if check and not target.contains(mat @ source.relations):
            raise NotWellDefined("images of relations do not vanish")

    @classmethod
    def identity(cls, module):
        return cls(module, module, Mat.identity(module.domain, module.ambient), check=False)

    @classmethod
    def zero_map(cls, source, target):
        return cls(source, target, Mat.zero(source.domain, target.ambient, source.ambient),
                   check=False)

    def compose(self, other):
        """``self after other``."""
        if other.target.ambient != self.source.ambient:
            raise ValueError("composition shape mismatch")
        return Morphism(other.source, self.target, self.mat @ other.mat, check=False)

    def __add__(self, other):
        return Morphism(self.source, self.target, self.mat + other.mat, check=False)

    def __sub__(self, other):
        return Morphism(self.source, self.target, self.mat - other.mat, check=False)

    def is_zero(self):
        return self.target.contains(self.mat)

    def dec_rows(self):
        """The rows of this map's matrix on the invariant-factor coordinates of
        its two ends, each in decomposition order."""
        return (self.target._to_dec @ self.mat @ self.source._from_dec).data

    def equals(self, other):
        if self.source.ambient != other.source.ambient or \
                self.target.ambient != other.target.ambient:
            return False
        return (self - other).is_zero()

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


_set_source, _set_target, _set_mat = _slot_setters(Morphism)


def loc_tensor(module, x, n):
    """``(module[1/x]) (x) N`` for torsion ``N``: the x-primary part of each
    invariant factor dies.  Shares the ambient of ``module (x) N`` so the
    canonical localization map is the identity matrix.
    """
    D = n.domain
    if D.is_zero(x):
        raise ValueError("cannot invert zero")
    if not n.is_torsion():
        raise DomainViolation("localized tensor needs a torsion module")
    base = module.tensor(n)
    return base.quotient(torsion_gens(base, x))


def torsion_gens(module, g):
    """Ambient columns generating the elements killed by a power of ``g``.

    For ``g != 0`` these are the elements killed by ``s``, the part of the
    largest invariant factor supported on the primes of ``g``: every factor
    divides it, and a free summand has no element killed by a nonzero ``s``.
    A module without torsion, or ``g == 0``, takes ``g`` itself.
    """
    D = module.domain
    c = g
    if module.factors and not D.is_zero(g):
        c = D.saturate_part(module.factors[-1], g)
    return killed_by(module, c)


def killed_by(module, c):
    """Ambient columns generating the kernel of multiplication by ``c``."""
    return Mat.scalar(module.domain, module.ambient, c).preimage(module.relations)


class HomSpace(_Frozen):
    """``Hom(M, N)`` as a module, with :meth:`realize` building the map of
    given coordinates.

    The generators are indexed by pairs of decomposition summands of ``M``
    and ``N`` in decomposition order (torsion summands ascending by invariant
    factor, then free summands).

    >>> from stab.domains import ZZ
    >>> H = HomSpace(FpModule.cyclic(ZZ, 6), FpModule.cyclic(ZZ, 4))
    >>> H.module.rank, list(H.module.factors)
    (0, [2])
    """

    __slots__ = ("source", "target", "module", "pairs")

    def __init__(self, source, target):
        source._check(target)
        D = source.domain
        _set_hom_source(self, source)
        _set_hom_target(self, target)
        ssum = list(source.factors) + [None] * source.rank
        tsum = list(target.factors) + [None] * target.rank
        pairs = []
        for i, a in enumerate(ssum):
            for j, b in enumerate(tsum):
                if a is None and b is None:
                    pairs.append((i, j, D.zero, D.one))
                elif a is None:
                    pairs.append((i, j, b, D.one))
                elif b is None:
                    continue  # torsion to free is zero
                else:
                    g = D.gcd(a, b)
                    if D.is_unit(g):
                        continue
                    pairs.append((i, j, g, D.exact_div(b, g)))
        _set_pairs(self, tuple(pairs))
        _set_hom_module(self, _diag_module(D, [ann for (_, _, ann, _) in pairs]))

    def realize(self, coords):
        """The morphism with the given coordinates over the Hom generators."""
        if len(coords) != len(self.pairs):
            raise ValueError(f"{len(coords)} coordinates for {len(self.pairs)} generators")
        D = self.source.domain
        sdim = len(self.source.factors) + self.source.rank
        tdim = len(self.target.factors) + self.target.rank
        dec = [[D.zero] * sdim for _ in range(tdim)]
        for c, (i, j, _, mult) in zip(coords, self.pairs):
            dec[j][i] = D.add(dec[j][i], D.mul(c, mult))
        mat = self.target._from_dec @ Mat(D, dec, tdim, sdim) @ self.source._to_dec
        return Morphism(self.source, self.target, mat)

    def induced(self, other, f=None, g=None):
        """The matrix of ``u -> g u f`` from ``other = Hom(L, A)`` to this
        ``Hom(K, B)`` for ``f : K -> L`` and ``g : A -> B``, each omitted for
        the identity.  As ``_to_dec @ _from_dec`` is the identity on each
        module, generator ``(i, j, _, m)`` goes to the decomposed entries
        ``Tg[j2][j] m Tf[i][i2]``, with ``Tf`` and ``Tg`` the
        :meth:`Morphism.dec_rows` of ``f`` and ``g``; no generator is realized."""
        D = self.source.domain
        tf = None if f is None else f.dec_rows()
        tg = None if g is None else g.dec_rows()

        def entry(i, j, m, i2, j2, ann, m2):
            # An omitted map's entry is whether it lies on the diagonal, and a
            # zero factor skips the products.
            a = i2 == i if tf is None else tf[i][i2]
            b = j2 == j if tg is None else tg[j2][j]
            if not (a and b):
                return D.zero
            t = m if tf is None else D.mul(m, a)
            return _hom_coord(D, t if tg is None else D.mul(b, t), ann, m2)

        return Mat.from_cols(D, [[entry(i, j, m, *pair) for pair in self.pairs]
                                 for i, j, _, m in other.pairs], len(self.pairs))


_set_hom_source, _set_hom_target, _set_hom_module, _set_pairs = _slot_setters(HomSpace)


def _hom_coord(D, t, ann, mult):
    """The coordinate of decomposed entry ``t`` at a Hom generator: ``t / mult``
    reduced modulo ``ann``."""
    c = D.exact_div(t, mult) if not D.is_unit(mult) else D.mul(t, D.unit_inv(mult))
    return c if D.is_zero(ann) else D.divmod(c, ann)[1]


def _pruned(rel):
    """One gcd column per occupied row when no column of ``rel`` has two
    nonzero entries (see the module docstring); otherwise, or when ``rel``
    is already in that shape, ``rel`` itself."""
    D = rel.domain
    support = _support(rel)
    if support is None:
        return rel
    gcds = _row_gcds(D, support)
    # As many occupied rows as columns: no zero column and no shared row.
    if len(gcds) == rel.cols:
        return rel
    return Mat.monomial(D, rel.rows, sorted(gcds.items()))


def _diag_module(domain, anns):
    """One generator per entry of ``anns``, killed by it (zero entries stay free)."""
    entries = [(i, a) for i, a in enumerate(anns) if not domain.is_zero(a)]
    return FpModule(domain, len(anns), Mat.monomial(domain, len(anns), entries))


def sub_contains(ambient_mod, g1, g2):
    """Whether ``<g2>`` is contained in ``<g1>`` inside the module."""
    return ambient_mod.quotient(g1).contains(g2)


def sub_equal(ambient_mod, g1, g2):
    return sub_contains(ambient_mod, g1, g2) and sub_contains(ambient_mod, g2, g1)


def sub_intersect(ambient_mod, g1, g2):
    """Generators of the intersection of two submodules of the same module."""
    return (g1 @ g1.preimage(g2.hstack(ambient_mod.relations))).span_basis()
