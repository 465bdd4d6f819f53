"""The experiment engine: ideal-power families, stabilization detection,
and the Artin-Rees exponent probe.

A family produces one finitely presented module per index ``n``; a scan
pushes the family through a functor, records associated primes and depth,
and reports whether the observed sequence is eventually constant within the
horizon.  A row whose source repeats the previous row's presentation, as
most rows do once a family settles, takes that row's value.  Detection is
honest about its finite window: the theorems this machinery probes
guarantee existence of a stabilization index but give no bound, so a
sequence that keeps moving is reported as ``not-stable-within-horizon`` (or
as periodic when an exact period fits a long enough tail).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .matrices import Mat
from .modules import (FpModule, Morphism, sub_equal, sub_intersect,
                      sub_contains)
from .invariants import ass, ann, depth, ann_contains
from .functors import IdentityFunctor, homology


class AnnihilatorViolation(RuntimeError):
    """A functor value failed the annihilator monotonicity law."""


class Family:
    """Base for ideal-power families of modules; ``generate(n)`` is pure."""

    scan_start = 1

    def generate(self, n):
        raise NotImplementedError


class QuotientPowers(Family):
    """``n -> M / I^n M``."""

    def __init__(self, module, ideal):
        self.module = module
        self.ideal = ideal

    def generate(self, n):
        return self.module.power_quotient(self.ideal, n)


class SubquotientFamily(Family):
    """``n -> (U + I^n V) / I^n W`` inside a fixed module.

    ``W <= V`` is checked once, here; ``generate`` builds each value without
    checking it again.
    """

    def __init__(self, module, u, v, w, ideal):
        module.check_subquotient(u, v, w)
        self.module = module
        self.u, self.v, self.w = u, v, w
        self.ideal = ideal

    def generate(self, n):
        return self.module._subquotient(self.u, self.v, self.w, self.ideal, n)


class Layers(SubquotientFamily):
    """``n -> I^(n-1) M / I^n M``, the subquotient ``I^(n-1) M / I^(n-1) (I M)``."""

    def __init__(self, module, ideal):
        D, k = module.domain, module.ambient
        super().__init__(module, Mat.zero(D, k, 0), Mat.identity(D, k),
                         Mat.scalar(D, k, ideal.gen), ideal)

    def generate(self, n):
        if n < 1:
            raise ValueError("layers need n >= 1")
        return self.module._subquotient(self.u, self.v, self.w, self.ideal, n - 1)


class GradedLayers(SubquotientFamily):
    """``n -> I^n M / I^n M'`` for a submodule given by generators."""

    def __init__(self, module, sub_gens, ideal):
        D, k = module.domain, module.ambient
        super().__init__(module, Mat.zero(D, k, 0), Mat.identity(D, k), sub_gens, ideal)


class KwHomology(Family):
    """Homology of ``L/I^n L' -> M/I^n M' -> N/I^n N'`` at the middle.

    With shift data ``(L1, L2, c)`` the source is ``(L1 + I^(n-c) L2)/I^n L'``,
    subject to ``I^c L' <= L2``; scans then start at ``max(1, c)``.
    """

    def __init__(self, alpha, beta, l_sub, m_sub, n_sub, ideal, shift=None):
        if not beta.compose(alpha).is_zero():
            raise ValueError("not a complex: composite is nonzero")
        self.alpha, self.beta = alpha, beta
        self.l_sub, self.m_sub, self.n_sub = l_sub, m_sub, n_sub
        self.ideal = ideal
        self.shift = shift
        lmod, mmod, nmod = alpha.source, alpha.target, beta.target
        if not sub_contains(mmod, m_sub, alpha.mat @ l_sub):
            raise ValueError("alpha does not map L' into M'")
        if not sub_contains(nmod, n_sub, beta.mat @ m_sub):
            raise ValueError("beta does not map M' into N'")
        if shift is not None:
            _, l2, c = shift
            if c < 0:
                raise ValueError("shift offset must be nonnegative")
            g_c = ideal.power_gen(c)
            if not sub_contains(lmod, l2, l_sub.scale(g_c)):
                raise ValueError("I^c L' is not contained in L2")
            self.scan_start = max(1, c)
            # ``alpha L1`` and ``alpha L2`` do not depend on n.
            self.alpha_l1, self.alpha_l2 = alpha.mat @ shift[0], alpha.mat @ l2

    def generate(self, n):
        if self.shift is not None and n < self.shift[2]:
            raise ValueError("index below the shift offset")
        if n < 0:
            raise ValueError("index must be nonnegative")
        g_n = self.ideal.power_gen(n)
        m_n = self.alpha.target.quotient(self.m_sub.scale(g_n))
        n_n = self.beta.target.quotient(self.n_sub.scale(g_n))
        beta_n = Morphism(m_n, n_n, self.beta.mat)
        if self.shift is None:
            image_gens = self.alpha.mat
        else:
            shifted = self.alpha_l2.scale(self.ideal.power_gen(n - self.shift[2]))
            image_gens = self.alpha_l1.hstack(shifted)
        return homology(image_gens, beta_n)[0]


class StabilizationReport(NamedTuple):
    """A scanned sequence of values with the detected verdict."""

    observations: tuple
    window: int
    status: str
    n0: Optional[int]
    period: Optional[int]


def detect(ns, values, window):
    """Verdict for a finite observation window.

    Stable requires the last ``window`` values to agree; the reported index
    is the start of the maximal constant tail.  Otherwise the verdict is
    periodic with the smallest start, then the smallest period ``k >= 2``,
    whose periodic tail covers at least ``max(window, 2k)`` observations; the
    start is reported only when it is not the first index.
    """
    count = len(values)
    if count < window:
        raise ValueError("window longer than the observation range")
    tail = values[-window:]
    if all(v == tail[0] for v in tail):
        i = count - 1
        while i > 0 and values[i - 1] == values[-1]:
            i -= 1
        return "stable", ns[i], None
    best = None
    for k in range(2, count // 2 + 1):
        # Walk back from the end while the period still holds.
        s = count - k
        while s > 0 and values[s - 1] == values[s - 1 + k]:
            s -= 1
        if count - s >= max(window, 2 * k) and (best is None or s < best[0]):
            best = (s, k)
            if s == 0:
                break  # no longer period can start earlier
    if best is None:
        return "not-stable-within-horizon", None, None
    s, k = best
    return f"oscillating-with-period-{k}", ns[s] if s else None, k


class ScanRow(NamedTuple):
    n: int
    value: FpModule
    ass_set: object
    depth_value: object


class ScanResult(NamedTuple):
    rows: tuple
    ass_report: StabilizationReport
    depth_report: Optional[StabilizationReport]


def scan_range_fault(start, horizon, window):
    """``None`` when ``window >= 2`` fits in ``[start, horizon]``, else the
    offending field (``"window"`` or ``"horizon"``) and a message."""
    if window < 2:
        return "window", f"need window >= 2, got {window}"
    least = start + window - 1
    if horizon < least:
        return "horizon", (f"need horizon >= {least} for window {window} "
                           f"from n={start}, got {horizon}")
    return None


def scan_rows(family, functor=None, depth_ideal=None, horizon=50, window=10):
    """Evaluate a family through a functor across ``[start, horizon]``.

    Returns a :class:`ScanResult` with one row per index (invariant factors,
    associated primes, and depth when a depth ideal is given) plus detection
    verdicts.  Every row asserts the annihilator monotonicity law
    ``ann(N) <= ann(F(N))``.  A row whose source has the same presentation
    as the previous row's (equal pruned relation matrices, hence the same
    ambient rank) reuses that row's value, primes, depth and both
    annihilators: functors are pure, so evaluating again would give the same
    answers.  Depth is read off the row's primes (see
    :func:`stab.invariants.depth`).
    """
    if functor is None:
        functor = IdentityFunctor()
    fault = scan_range_fault(family.scan_start, horizon, window)
    if fault:
        raise ValueError(": ".join(fault))
    ns = list(range(family.scan_start, horizon + 1))

    # ``last``: the previous row's source relations; ``anns``: that row's
    # source and value annihilators.
    rows, last, anns = [], None, None
    for n in ns:
        source = family.generate(n)
        if source.relations == last:
            row = rows[-1]._replace(n=n)
        else:
            value = functor(source)
            primes = ass(value)
            d = depth(depth_ideal, value, primes) if depth_ideal is not None else None
            row = ScanRow(n, value, primes, d)
            last, anns = source.relations, (ann(source), ann(value))
        if not ann_contains(*anns):
            raise AnnihilatorViolation(f"ann {anns[0]!r} not inside ann {anns[1]!r} at n={n}")
        rows.append(row)

    ass_values = [r.ass_set for r in rows]
    status, n0, period = detect(ns, ass_values, window)
    ass_report = StabilizationReport(tuple(zip(ns, ass_values)), window, status, n0, period)
    depth_report = None
    if depth_ideal is not None:
        dvals = [r.depth_value for r in rows]
        status, n0, period = detect(ns, dvals, window)
        depth_report = StabilizationReport(tuple(zip(ns, dvals)), window, status, n0, period)
    return ScanResult(tuple(rows), ass_report, depth_report)


def artin_rees_probe(beta, n_prime, ideal, horizon=10):
    """Least ``d`` with ``cut(n) = I^(n-d) cut(d)`` for all ``n`` in
    ``[d, horizon]``, where ``cut(n) = beta(M) * I^n N'`` (``*`` denoting
    intersection); an int, as ``d = horizon`` always holds.  That is
    ``cut(n + 1) = I cut(n)`` for every ``n >= d``, so ``d`` is one past the
    last failing step, read backwards from the horizon.
    """
    target = beta.target
    if n_prime.rows != target.ambient:
        raise ValueError("N' generators must live in the target module")
    cuts = [sub_intersect(target, beta.mat, n_prime.scale(ideal.power_gen(n)))
            for n in range(horizon + 1)]
    for n in reversed(range(horizon)):
        if not sub_equal(target, cuts[n + 1], cuts[n].scale(ideal.gen)):
            return n + 1
    return 0
