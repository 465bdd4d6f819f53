"""Workload inputs and their output checks.

This module imports nothing from ``stab``: the inputs and the answers they are
checked against come from the seed and from how each input is built.

* ``suite-int`` and ``suite-poly`` run packaged scenarios through
  ``stab run``; each report is checked against the SHA-256 digests in
  ``expected_reports.json``, recorded at the commit that added this benchmark.
* ``compute-distinct`` sends ``stab compute`` requests whose answers are
  known from their construction: a diagonal of invariant factors mixed by
  random unimodular row and column operations.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

HORIZON = 200
BATCH = 200
SUBCOMMANDS = ("snf", "ass", "depth", "hom")
# Backend of request i is DOMAINS[(i // 4) % 4]: half over Z, a quarter each
# over GF(2)[x] and GF(5)[x], the same mix in every batch.
DOMAINS = (None, None, 2, 5)
EXPECTED = Path(__file__).resolve().parent / "expected_reports.json"


def load_expected():
    return json.loads(EXPECTED.read_text())


def digest(data):
    return hashlib.sha256(data).hexdigest()


def report_record(csv_bytes, json_bytes, summary):
    """What is stored and compared for one ``stab run``."""
    return {"csv": digest(csv_bytes), "json": digest(json_bytes),
            "summary": digest(summary.encode()),
            "rows": csv_bytes.count(b"\n") - 1}


def suite_order(names, rng):
    order = sorted(names)
    rng.shuffle(order)
    return order


# -- integers -------------------------------------------------------------------

def _is_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng, lo_bits=20, hi_bits=24):
    bits = rng.randint(lo_bits, hi_bits)
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if _is_prime(n):
            return n


class _IntRing:
    zero, one = 0, 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def to_json(self, a):
        return str(a)

    def to_str(self, a):
        return str(a)

    def prime_key(self, q):
        return q

    def multiplier(self, rng):
        return rng.choice((-2, -1, 1, 2))

    def primes(self, rng, k):
        out = set()
        while len(out) < k:
            out.add(_random_prime(rng))
        return sorted(out)


# -- GF(p)[x], coefficient tuples lowest degree first, no trailing zeros ----------

def _trim(c):
    i = len(c)
    while i and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


class _PolyRing:
    zero = ()

    def __init__(self, p, max_degree):
        self.p = p
        self.one = (1,)
        self.irreducibles = self._irreducibles(max_degree)

    def add(self, a, b):
        n = max(len(a), len(b))
        return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % self.p
                      for i in range(n)])

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % self.p
        return _trim(out)

    def _rem(self, a, b):
        # b monic
        r = list(a)
        while len(r) >= len(b):
            c = r[-1]
            shift = len(r) - len(b)
            for i, y in enumerate(b):
                r[shift + i] = (r[shift + i] - c * y) % self.p
            r = list(_trim(r))
        return tuple(r)

    def _irreducibles(self, max_degree):
        found = []
        for deg in range(1, max_degree + 1):
            for code in range(self.p ** deg):
                low = [(code // self.p ** i) % self.p for i in range(deg)]
                f = tuple(low) + (1,)
                if all(self._rem(f, g) for g in found if 2 * (len(g) - 1) <= deg):
                    found.append(f)
        return found

    def to_json(self, a):
        return list(a)

    def to_str(self, a):
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
        return "+".join(terms) if terms else "0"

    def prime_key(self, q):
        return (len(q), q)

    def multiplier(self, rng):
        while True:
            c = _trim([rng.randrange(self.p) for _ in range(2)])
            if c:
                return c

    def primes(self, rng, k):
        return sorted(rng.sample(self.irreducibles, k), key=self.prime_key)


ZZ_RING = _IntRing()


@functools.lru_cache(maxsize=None)
def _poly_ring(p):
    return _PolyRing(p, {2: 4, 5: 3}[p])


# -- modules known by construction ------------------------------------------------

class KnownModule:
    """``R^rank`` plus ``R/(d_i)``, each ``d_i`` a product of ``primes``.

    ``exps[i][k]`` is the exponent of ``primes[k]`` in ``d_i``; the rows grow
    entrywise, so ``d_1 | d_2 | ...`` and the ``d_i`` are the invariant
    factors (units included).
    """

    def __init__(self, ring, primes, exps, rank):
        self.ring, self.primes, self.exps, self.rank = ring, primes, exps, rank

    def factor(self, exps):
        out = self.ring.one
        for q, e in zip(self.primes, exps):
            for _ in range(e):
                out = self.ring.mul(out, q)
        return out

    def diagonal(self):
        return [self.factor(e) for e in self.exps]

    def relations(self, rng, ops):
        """A presentation matrix: the diagonal mixed by unimodular operations."""
        ring = self.ring
        n = len(self.exps) + self.rank
        a = [[ring.zero] * n for _ in range(n)]
        for i, d in enumerate(self.diagonal()):
            a[i][i] = d
        for _ in range(ops):
            i, j = rng.sample(range(n), 2)
            c = ring.multiplier(rng)
            a[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(a[i], a[j])]
            i, j = rng.sample(range(n), 2)
            c = ring.multiplier(rng)
            for row in a:
                row[i] = ring.add(row[i], ring.mul(c, row[j]))
        return a

    def to_json(self, rng, ops):
        rows = self.relations(rng, ops)
        return {"ambient": len(rows),
                "relations": [[self.ring.to_json(x) for x in row] for row in rows]}


def _invariant_factors(ring, primes, torsion_exps):
    """Invariant factors of a sum of cyclic modules given by exponent vectors."""
    per_prime = [sorted((e[k] for e in torsion_exps if e[k]), reverse=True)
                 for k in range(len(primes))]
    count = max((len(es) for es in per_prime), default=0)
    out = []
    for t in range(count - 1, -1, -1):
        d = ring.one
        for q, es in zip(primes, per_prime):
            for _ in range(es[t] if t < len(es) else 0):
                d = ring.mul(d, q)
        out.append(d)
    return out


def _random_module(ring, rng, primes, size):
    """A module with ``size`` generators; every prime divides its last factor."""
    rank = 1 if rng.random() < 0.25 else 0
    exps = [[0] * len(primes) for _ in range(size - rank)]
    for k in range(len(primes)):
        start = rng.randrange(len(exps))
        for i in range(start, len(exps)):
            exps[i][k] = 1
    return KnownModule(ring, primes, exps, rank)


def _request(sub, ring, rng):
    """``(doc, expected answer)`` for one ``stab compute`` request."""
    if ring is ZZ_RING:
        backend, size, ops = {"kind": "integers"}, 4, 6
    else:
        backend, size, ops = {"kind": "poly", "characteristic": ring.p}, 3, 4
    primes = ring.primes(rng, rng.randint(2, 3))
    m = _random_module(ring, rng, primes, size)
    doc = {"backend": backend}
    if sub == "snf":
        doc["matrix"] = m.to_json(rng, ops)["relations"]
        return doc, {"diagonal": [ring.to_json(d) for d in m.diagonal()]}
    if sub == "ass":
        doc["module"] = m.to_json(rng, ops)
        ass = ["(0)"] if m.rank else []
        ass += [f"({ring.to_str(q)})" for q in primes]
        return doc, {"ass": ass}
    if sub == "depth":
        doc["module"] = m.to_json(rng, ops)
        # Every prime divides the last factor, so a generator that one of them
        # divides lies in an associated prime (depth 0); a fresh prime is
        # regular, and exhausts M unless M has a free summand.
        fresh = [q for q in ring.primes(rng, 4) if q not in primes][0]
        gen = rng.choice((primes[0], ring.mul(primes[0], fresh), fresh))
        doc["ideal"] = ring.to_json(gen)
        if gen != fresh:
            answer = "0"
        else:
            answer = "1" if m.rank else "inf"
        return doc, {"depth": answer}
    if sub == "hom":
        n = _random_module(ring, rng, primes, size)
        doc["source"] = m.to_json(rng, ops)
        doc["target"] = n.to_json(rng, ops)
        torsion = [[min(a, b) for a, b in zip(ea, eb)] for ea in m.exps for eb in n.exps]
        torsion += n.exps * m.rank
        factors = _invariant_factors(ring, primes, torsion)
        return doc, {"module": {"rank": m.rank * n.rank,
                                "factors": [ring.to_json(d) for d in factors]}}
    raise ValueError(f"unknown subcommand {sub!r}")


def compute_batch(seed, index, seen):
    """Batch ``index`` of ``compute-distinct`` for ``seed``.

    Returns ``BATCH`` triples ``(subcommand, json text, expected answer)``.
    ``seen`` holds the texts already sent in this run; a repeat is drawn again.
    """
    rng = random.Random(f"compute-distinct:{seed}:{index}")
    batch = []
    for i in range(BATCH):
        sub = SUBCOMMANDS[i % len(SUBCOMMANDS)]
        p = DOMAINS[(i // len(SUBCOMMANDS)) % len(DOMAINS)]
        ring = ZZ_RING if p is None else _poly_ring(p)
        while True:
            doc, expected = _request(sub, ring, rng)
            text = json.dumps(doc, sort_keys=True)
            if (sub, text) not in seen:
                seen.add((sub, text))
                break
        batch.append((sub, text, expected))
    rng.shuffle(batch)
    return batch


def check_compute(sub, expected, stdout):
    """True when a ``stab compute`` answer printed on ``stdout`` is right."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return False
    if not isinstance(out, dict):
        return False
    if sub == "snf":
        return out.get("diagonal") == expected["diagonal"]
    return out == expected
