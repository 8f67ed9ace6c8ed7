"""Shared fixtures: the paper's running examples as parsed programs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parser import parse_program
from repro.minipyro import clear_param_store
from repro.obs import REGISTRY

FIG5_MODEL_SOURCE = """
proc Model() consume latent provide obs {
  v <- sample.recv{latent}(Gamma(2.0, 1.0));
  if.send{latent} v < 2.0 {
    _ <- sample.send{obs}(Normal(-1.0, 1.0));
    return(v)
  } else {
    m <- sample.recv{latent}(Beta(3.0, 1.0));
    _ <- sample.send{obs}(Normal(m, 1.0));
    return(v)
  }
}
"""

FIG5_GUIDE_SOURCE = """
proc Guide1() provide latent {
  v <- sample.send{latent}(Gamma(1.0, 1.0));
  if.recv{latent} {
    return(v)
  } else {
    m <- sample.send{latent}(Unif);
    return(v)
  }
}
"""

FIG6_PCFG_SOURCE = """
proc Pcfg() consume latent {
  k <- sample.recv{latent}(Beta(3.0, 1.0));
  call PcfgGen(k)
}

proc PcfgGen(k: ureal) consume latent {
  u <- sample.recv{latent}(Unif);
  if.send{latent} u < k {
    v <- sample.recv{latent}(Normal(0.0, 1.0));
    return(v)
  } else {
    lhs <- call PcfgGen(k);
    rhs <- call PcfgGen(k);
    return(lhs + rhs)
  }
}
"""

FIG6_PCFG_GUIDE_SOURCE = """
proc PcfgGuide() provide latent {
  k <- sample.send{latent}(Beta(2.0, 2.0));
  call PcfgGenGuide(k)
}

proc PcfgGenGuide(k: ureal) provide latent {
  u <- sample.send{latent}(Unif);
  if.recv{latent} {
    v <- sample.send{latent}(Normal(0.0, 2.0));
    return(v)
  } else {
    lhs <- call PcfgGenGuide(k);
    rhs <- call PcfgGenGuide(k);
    return(lhs + rhs)
  }
}
"""


@pytest.fixture
def fig5_model():
    return parse_program(FIG5_MODEL_SOURCE)


@pytest.fixture
def fig5_guide():
    return parse_program(FIG5_GUIDE_SOURCE)


@pytest.fixture
def fig6_pcfg():
    return parse_program(FIG6_PCFG_SOURCE)


@pytest.fixture
def fig6_pcfg_guide():
    return parse_program(FIG6_PCFG_GUIDE_SOURCE)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _clean_param_store():
    """Keep the global mini-Pyro parameter store isolated between tests."""
    clear_param_store()
    yield
    clear_param_store()


@pytest.fixture
def fresh_registry():
    """The process-wide metrics registry, emptied of samples.  The server
    counts every request there and ``op: stats`` reads it back, so with this
    fixture a test's maxima and percentiles are its own (counts can also be
    read as deltas, see :func:`stats_delta`)."""
    REGISTRY.reset()
    return REGISTRY


#: The ``op: stats`` counters that only go up.
STATS_COUNTS = (
    "requests_total", "failures_total", "batches_total", "coalesced_requests_total",
    "particles_total", "shed_total", "waves_total",
)


def stats_delta(before, after):
    """What the server counted between two ``op: stats`` counter blocks:
    each count's growth, and the shed reasons that grew, by how much."""
    delta = {key: after[key] - before[key] for key in STATS_COUNTS}
    shed_before = before["shed_by_reason"]
    delta["shed_by_reason"] = {
        reason: count - shed_before.get(reason, 0)
        for reason, count in after["shed_by_reason"].items()
        if count != shed_before.get(reason, 0)
    }
    return delta


def session_request(
    model_program, guide_program, model_entry, guide_entry,
    latent_channel="latent", obs_channel="obs", **request_fields,
):
    """The ``(session, request)`` pair the engine layer takes, for a pair of
    parsed programs (typechecking skipped) and the request's fields."""
    from repro.engine.api import InferenceRequest
    from repro.engine.session import ProgramSession

    session = ProgramSession(
        model_program, guide_program, model_entry, guide_entry,
        latent_channel=latent_channel, obs_channel=obs_channel, typecheck=False,
    )
    return session, InferenceRequest(**request_fields)
