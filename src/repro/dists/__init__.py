"""Primitive probability distributions with exact supports and densities.

Every distribution exposes:

``sample(rng)``
    Draw one value using a ``numpy.random.Generator``.
``log_prob(value)``
    Log density (continuous) or log mass (discrete) of ``value``; ``-inf``
    outside the support.
``prob(value)``
    ``exp(log_prob(value))`` — the paper's ``d.density``.
``in_support(value)``
    Exact support membership — the paper's ``v ∈ d.support``.
``support_type``
    The basic type τ such that the distribution has type ``dist(τ)``.

The families match the core calculus: Bernoulli, Uniform(0,1), Beta, Gamma,
Normal, Categorical, Geometric, Poisson.  Their parameter types and
supports are written once, in the typing rule
(:mod:`repro.core.typecheck.basic`), and :data:`~repro.dists.base.GUARDS`
holds one run-time guard per base type, which every check of a value reads
(:mod:`repro.dists.base`).  :data:`FAMILIES` holds one record per family
with its typed parameters, support, array sampler and density kernels
(:mod:`repro.dists.families`); every backend reads it.
"""

from repro.dists.base import Distribution
from repro.dists.continuous import Beta, Gamma, Normal, Uniform01
from repro.dists.discrete import Bernoulli, Categorical, Geometric, Poisson
from repro.dists.families import FAMILIES, make_distribution

__all__ = [
    "FAMILIES",
    "Distribution",
    "Normal",
    "Gamma",
    "Beta",
    "Uniform01",
    "Bernoulli",
    "Categorical",
    "Geometric",
    "Poisson",
    "make_distribution",
]
