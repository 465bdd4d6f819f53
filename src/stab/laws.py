"""Randomized functor-law checking shared by the test suite and the CLI.

A trial draws random composable morphisms (through Hom spaces, so they are
well-defined by construction) and checks that the functor preserves
identities, composition, and sums, with equality read modulo target
relations.
"""

from __future__ import annotations

import random

from .modules import FpModule, Morphism, HomSpace

# The most torsion summands of a random module, and the largest absolute value
# of a random integer Hom coordinate.
MAX_SUMMANDS = 3
COORD_BOUND = 6


def random_torsion_module(domain, rng, pool=None):
    if pool is None:
        if domain.kind == "integers":
            pool = [2, 3, 4, 8, 9, 12]
        else:
            x = (0, domain.one[0])
            x1 = domain.add(x, domain.one)
            pool = [x1, x, domain.mul(x, x), domain.mul(x, x1)]
            if domain.p > 2:
                # A third prime, x - 1, alone and times x + 1.
                x_1 = domain.sub(x, domain.one)
                pool += [x_1, domain.mul(x1, x_1)]
    k = rng.randint(1, MAX_SUMMANDS)
    factors = [pool[rng.randrange(len(pool))] for _ in range(k)]
    return FpModule.from_invariants(domain, 0, factors)


def random_module(domain, rng, max_rank=1, pool=None):
    m = random_torsion_module(domain, rng, pool)
    rank = rng.randint(0, max_rank)
    if rank:
        return FpModule.free(domain, rank).direct_sum(m)
    return m


def random_morphism(source, target, rng):
    """A uniformly random-ish well-defined morphism via Hom coordinates."""
    h = HomSpace(source, target)
    domain = source.domain
    coords = []
    for _ in h.pairs:
        if domain.kind == "integers":
            coords.append(rng.randint(-COORD_BOUND, COORD_BOUND))
        else:
            # c0 + c1 x, both already reduced mod p.
            c0, c1 = rng.randrange(domain.p), rng.randrange(domain.p)
            coords.append((c0, c1) if c1 else domain.const(c0))
    return h.realize(coords)


def check_functor_laws(functor, domain, rng=None, trials=50, torsion_only=False,
                       module_pool=None):
    """Run identity/composition/additivity law trials; returns failure strings."""
    if rng is None:
        rng = random.Random(0)
    failures = []
    make = random_torsion_module if torsion_only else random_module
    for t in range(trials):
        m = make(domain, rng, pool=module_pool)
        n = make(domain, rng, pool=module_pool)
        l = make(domain, rng, pool=module_pool)
        f = random_morphism(m, n, rng)
        f2 = random_morphism(m, n, rng)
        g = random_morphism(n, l, rng)
        ident = functor.map(Morphism.identity(m))
        if not ident.equals(Morphism.identity(functor(m))):
            failures.append(f"trial {t}: F(id) != id on {m!r}")
        lhs = functor.map(g.compose(f))
        rhs = functor.map(g).compose(functor.map(f))
        if not lhs.equals(rhs):
            failures.append(f"trial {t}: F(g.f) != F(g).F(f) on {m!r}->{n!r}->{l!r}")
        lhs = functor.map(f + f2)
        rhs = functor.map(f) + functor.map(f2)
        if not lhs.equals(rhs):
            failures.append(f"trial {t}: F(f+f') != F(f)+F(f') on {m!r}->{n!r}")
    return failures
