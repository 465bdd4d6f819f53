"""Finitely presented modules over Euclidean domains, covariant functors,
and asymptotic-stability scans along ideal-power families."""

from .domains import ZZ, PolyOverFp, poly_ring, domain_from_descriptor
from .matrices import Mat
from .modules import FpModule, Morphism, Ideal
from .invariants import AssSet, CmcSet, DEPTH_INF, ass, ann, depth, gamma, tau

__all__ = [
    "ZZ", "PolyOverFp", "poly_ring", "domain_from_descriptor",
    "Mat", "FpModule", "Morphism", "Ideal",
    "AssSet", "CmcSet", "DEPTH_INF",
    "ass", "ann", "depth", "gamma", "tau",
]
