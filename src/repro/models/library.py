"""The benchmark programs of the paper's evaluation, in our surface syntax.

Each :class:`Benchmark` bundles a model program, a guide program, observation
data, the inference algorithm the paper runs on it (Table 2), and the
paper-reported expressiveness/size numbers (Table 1) so the benchmark
harness can print paper-vs-measured comparisons.

The benchmark set mirrors Table 1's selected rows:

========== =============================================== ==== ===== ====
name        description                                     T?   LOC   TP?
========== =============================================== ==== ===== ====
lr          Bayesian linear regression                      ✓    16    ✓
gmm         Gaussian mixture model                          ✓    44    ✓
kalman      Kalman smoother                                 ✓    32    ✓
sprinkler   Bayesian network                                ✓    22    ✓
hmm         Hidden Markov model                             ✓    31    ✓
branching   random control flow                             ✓    19    ✗
marsaglia   Marsaglia algorithm                             ✓    22    ✗
dp          Dirichlet process (stochastic memoization)      ✗    N/A   ✗
ptrace      Poisson trace (Knuth)                           ✓    11    ✗
aircraft    aircraft detection                              ✓    32    ✓
weight      unreliable weigh                                ✓    8     ✓
vae         variational autoencoder                         ✓    26    ✓
ex-1        Fig. 5 (conditional model/guide pair)           ✓    13    ✗
ex-2        Fig. 6 (recursive PCFG)                         ✓    21    ✗
gp-dsl      Gaussian-process kernel DSL                     ✓    58    ✗
========== =============================================== ==== ===== ====

plus five extra synthetic models (``outliers``, ``coin``, ``randomwalk``,
``burglary``, ``seasonal``) in the spirit of the paper's "6 new benchmarks".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ast import Program
from repro.core.parser import parse_program


def source_loc(source: Optional[str]) -> int:
    """Non-blank, non-comment lines of surface-syntax source (Table 1's LOC)."""
    if not source:
        return 0
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#") and not stripped.startswith("//"):
            count += 1
    return count


@dataclass
class PaperTable1Row:
    """Paper-reported Table 1 entries for one benchmark."""

    typechecks_ours: bool
    loc: Optional[int]
    typechecks_prior: bool


@dataclass
class PaperTable2Row:
    """Paper-reported Table 2 entries for one benchmark (None if absent)."""

    algorithm: str
    codegen_ms: float
    generated_loc: int
    generated_inference_s: float
    handwritten_loc: int
    handwritten_inference_s: float


@dataclass
class Benchmark:
    """One benchmark program with its guide, data, and paper-reported numbers."""

    name: str
    description: str
    model_source: Optional[str]
    model_entry: Optional[str]
    guide_source: Optional[str] = None
    guide_entry: Optional[str] = None
    inference: Optional[str] = None  # "IS", "VI", "MCMC", or None
    obs_values: Tuple[object, ...] = ()
    model_args: Tuple[object, ...] = ()
    guide_param_inits: Dict[str, float] = field(default_factory=dict)
    expressible: bool = True
    selected: bool = True
    recursive: bool = False
    branch_dependent: bool = False
    paper_table1: Optional[PaperTable1Row] = None
    paper_table2: Optional[PaperTable2Row] = None
    notes: str = ""

    def model_program(self) -> Program:
        if self.model_source is None:
            raise ValueError(f"benchmark {self.name!r} has no model program")
        return parse_program(self.model_source)

    def guide_program(self) -> Program:
        if self.guide_source is None:
            raise ValueError(f"benchmark {self.name!r} has no guide program")
        return parse_program(self.guide_source)

    @property
    def model_loc(self) -> int:
        return source_loc(self.model_source)


# ---------------------------------------------------------------------------
# Model and guide sources
# ---------------------------------------------------------------------------

_LR_MODEL = """
proc LinReg() consume latent provide obs {
  slope <- sample.recv{latent}(Normal(0.0, 10.0));
  intercept <- sample.recv{latent}(Normal(0.0, 10.0));
  noise <- sample.recv{latent}(Gamma(1.0, 1.0));
  _ <- sample.send{obs}(Normal(slope * 1.0 + intercept, noise));
  _ <- sample.send{obs}(Normal(slope * 2.0 + intercept, noise));
  _ <- sample.send{obs}(Normal(slope * 3.0 + intercept, noise));
  _ <- sample.send{obs}(Normal(slope * 4.0 + intercept, noise));
  _ <- sample.send{obs}(Normal(slope * 5.0 + intercept, noise));
  return(slope)
}
"""

_LR_GUIDE = """
proc LinRegGuide() provide latent {
  slope <- sample.send{latent}(Normal(1.0, 2.0));
  intercept <- sample.send{latent}(Normal(0.0, 2.0));
  noise <- sample.send{latent}(Gamma(2.0, 2.0));
  return(slope)
}
"""

_GMM_MODEL = """
proc Gmm() consume latent provide obs {
  mu1 <- sample.recv{latent}(Normal(-2.0, 5.0));
  mu2 <- sample.recv{latent}(Normal(2.0, 5.0));
  z1 <- sample.recv{latent}(Ber(0.5));
  _ <- sample.send{obs}(Normal(if z1 then mu1 else mu2, 1.0));
  z2 <- sample.recv{latent}(Ber(0.5));
  _ <- sample.send{obs}(Normal(if z2 then mu1 else mu2, 1.0));
  z3 <- sample.recv{latent}(Ber(0.5));
  _ <- sample.send{obs}(Normal(if z3 then mu1 else mu2, 1.0));
  z4 <- sample.recv{latent}(Ber(0.5));
  _ <- sample.send{obs}(Normal(if z4 then mu1 else mu2, 1.0));
  return(mu1)
}
"""

_GMM_GUIDE = """
proc GmmGuide() provide latent {
  mu1 <- sample.send{latent}(Normal(-2.0, 3.0));
  mu2 <- sample.send{latent}(Normal(2.0, 3.0));
  z1 <- sample.send{latent}(Ber(0.5));
  z2 <- sample.send{latent}(Ber(0.5));
  z3 <- sample.send{latent}(Ber(0.5));
  z4 <- sample.send{latent}(Ber(0.5));
  return(mu1)
}
"""

_KALMAN_MODEL = """
proc Kalman() consume latent provide obs {
  x1 <- sample.recv{latent}(Normal(0.0, 1.0));
  _ <- sample.send{obs}(Normal(x1, 0.5));
  x2 <- sample.recv{latent}(Normal(x1, 1.0));
  _ <- sample.send{obs}(Normal(x2, 0.5));
  x3 <- sample.recv{latent}(Normal(x2, 1.0));
  _ <- sample.send{obs}(Normal(x3, 0.5));
  x4 <- sample.recv{latent}(Normal(x3, 1.0));
  _ <- sample.send{obs}(Normal(x4, 0.5));
  return(x4)
}
"""

_KALMAN_GUIDE = """
proc KalmanGuide() provide latent {
  x1 <- sample.send{latent}(Normal(0.5, 1.0));
  x2 <- sample.send{latent}(Normal(x1, 1.0));
  x3 <- sample.send{latent}(Normal(x2, 1.0));
  x4 <- sample.send{latent}(Normal(x3, 1.0));
  return(x4)
}
"""

_SPRINKLER_MODEL = """
proc Sprinkler() consume latent provide obs {
  rain <- sample.recv{latent}(Ber(0.2));
  sprinkler <- sample.recv{latent}(Ber(if rain then 0.01 else 0.4));
  _ <- sample.send{obs}(Ber(if rain then (if sprinkler then 0.99 else 0.8)
                            else (if sprinkler then 0.9 else 0.05)));
  return(rain)
}
"""

_SPRINKLER_GUIDE = """
proc SprinklerGuide() provide latent {
  rain <- sample.send{latent}(Ber(0.3));
  sprinkler <- sample.send{latent}(Ber(if rain then 0.05 else 0.5));
  return(rain)
}
"""

_HMM_MODEL = """
proc Hmm() consume latent provide obs {
  s1 <- sample.recv{latent}(Ber(0.5));
  _ <- sample.send{obs}(Normal(if s1 then 1.0 else -1.0, 1.0));
  s2 <- sample.recv{latent}(Ber(if s1 then 0.7 else 0.3));
  _ <- sample.send{obs}(Normal(if s2 then 1.0 else -1.0, 1.0));
  s3 <- sample.recv{latent}(Ber(if s2 then 0.7 else 0.3));
  _ <- sample.send{obs}(Normal(if s3 then 1.0 else -1.0, 1.0));
  s4 <- sample.recv{latent}(Ber(if s3 then 0.7 else 0.3));
  _ <- sample.send{obs}(Normal(if s4 then 1.0 else -1.0, 1.0));
  return(s4)
}
"""

_HMM_GUIDE = """
proc HmmGuide() provide latent {
  s1 <- sample.send{latent}(Ber(0.6));
  s2 <- sample.send{latent}(Ber(if s1 then 0.7 else 0.3));
  s3 <- sample.send{latent}(Ber(if s2 then 0.7 else 0.3));
  s4 <- sample.send{latent}(Ber(if s3 then 0.7 else 0.3));
  return(s4)
}
"""

_BRANCHING_MODEL = """
proc Branching() consume latent provide obs {
  r <- sample.recv{latent}(Pois(4.0));
  if.send{latent} r < 4 {
    _ <- sample.send{obs}(Pois(6.0));
    return(r)
  } else {
    m <- sample.recv{latent}(Unif);
    _ <- sample.send{obs}(Pois(6.0 + 10.0 * m));
    return(r)
  }
}
"""

_BRANCHING_GUIDE = """
proc BranchingGuide() provide latent {
  r <- sample.send{latent}(Pois(3.0));
  if.recv{latent} {
    return(r)
  } else {
    m <- sample.send{latent}(Beta(2.0, 2.0));
    return(r)
  }
}
"""

_MARSAGLIA_MODEL = """
proc Marsaglia() consume latent provide obs {
  z <- call MarsagliaHelper();
  _ <- sample.send{obs}(Normal(1.0 + 2.0 * z, 0.5));
  return(z)
}

proc MarsagliaHelper() consume latent {
  u1 <- sample.recv{latent}(Unif);
  u2 <- sample.recv{latent}(Unif);
  if.send{latent} u1 * u1 + u2 * u2 < 1.0 {
    return((2.0 * u1 - 1.0) * sqrt(log(u1 * u1 + u2 * u2) * -2.0))
  } else {
    call MarsagliaHelper()
  }
}
"""

_MARSAGLIA_GUIDE = """
proc MarsagliaGuide() provide latent {
  call MarsagliaGuideHelper()
}

proc MarsagliaGuideHelper() provide latent {
  u1 <- sample.send{latent}(Unif);
  u2 <- sample.send{latent}(Unif);
  if.recv{latent} {
    return(u1)
  } else {
    call MarsagliaGuideHelper()
  }
}
"""

_PTRACE_MODEL = """
proc Ptrace() consume latent provide obs {
  k <- call PtraceHelper(exp(-4.0), 0, 1.0);
  _ <- sample.send{obs}(Normal(k, 0.1));
  return(k)
}

proc PtraceHelper(l: preal, k: nat, p: preal) consume latent {
  u <- sample.recv{latent}(Unif);
  if.send{latent} p * u <= l {
    return(k)
  } else {
    call PtraceHelper(l, k + 1, p * u)
  }
}
"""

_PTRACE_GUIDE = """
proc PtraceGuide() provide latent {
  call PtraceGuideHelper()
}

proc PtraceGuideHelper() provide latent {
  u <- sample.send{latent}(Unif);
  if.recv{latent} {
    return(u)
  } else {
    call PtraceGuideHelper()
  }
}
"""

_AIRCRAFT_MODEL = """
proc Aircraft() consume latent provide obs {
  position1 <- sample.recv{latent}(Normal(0.0, 5.0));
  position2 <- sample.recv{latent}(Normal(0.0, 5.0));
  detect_rate <- sample.recv{latent}(Beta(5.0, 2.0));
  _ <- sample.send{obs}(Normal(position1, 1.0));
  _ <- sample.send{obs}(Normal(position2, 1.0));
  _ <- sample.send{obs}(Ber(detect_rate));
  return(position1)
}
"""

_AIRCRAFT_GUIDE = """
proc AircraftGuide() provide latent {
  position1 <- sample.send{latent}(Normal(-1.0, 2.0));
  position2 <- sample.send{latent}(Normal(3.0, 2.0));
  detect_rate <- sample.send{latent}(Beta(4.0, 2.0));
  return(position1)
}
"""

_WEIGHT_MODEL = """
proc Weigh() consume latent provide obs {
  weight <- sample.recv{latent}(Normal(8.5, 1.0));
  _ <- sample.send{obs}(Normal(weight, 0.75));
  return(weight)
}
"""

_WEIGHT_GUIDE = """
proc WeighGuide(loc: real, log_scale: real) provide latent {
  weight <- sample.send{latent}(Normal(loc, exp(log_scale)));
  return(weight)
}
"""

_VAE_MODEL = """
proc Vae() consume latent provide obs {
  z1 <- sample.recv{latent}(Normal(0.0, 1.0));
  z2 <- sample.recv{latent}(Normal(0.0, 1.0));
  _ <- sample.send{obs}(Normal(0.9 * z1 + 0.1 * z2 + 0.2, 0.5));
  _ <- sample.send{obs}(Normal(0.4 * z1 - 0.6 * z2 - 0.1, 0.5));
  _ <- sample.send{obs}(Normal(-0.7 * z1 + 0.8 * z2 + 0.3, 0.5));
  _ <- sample.send{obs}(Normal(0.2 * z1 + 0.5 * z2 - 0.4, 0.5));
  return(z1)
}
"""

_VAE_GUIDE = """
proc VaeGuide(m1: real, s1: real, m2: real, s2: real) provide latent {
  z1 <- sample.send{latent}(Normal(m1, exp(s1)));
  z2 <- sample.send{latent}(Normal(m2, exp(s2)));
  return(z1)
}
"""

_EX1_MODEL = """
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

_EX1_GUIDE = """
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

# Unsound variants of the Fig. 3 / Fig. 4 guides, used by the soundness
# ablation (E6): Guide1' samples @x from a Poisson and branches on a
# different predicate; Guide2' samples @x from a Normal (wrong support).
_EX1_GUIDE_UNSOUND_IS = """
proc Guide1Bad() provide latent {
  v <- sample.send{latent}(Pois(4.0));
  if.recv{latent} {
    return(v)
  } else {
    m <- sample.send{latent}(Unif);
    return(v)
  }
}
"""

_EX1_GUIDE_UNSOUND_VI = """
proc Guide2Bad(t1: real, t2: real) provide latent {
  v <- sample.send{latent}(Normal(t1, exp(t2)));
  if.recv{latent} {
    return(v)
  } else {
    m <- sample.send{latent}(Unif);
    return(v)
  }
}
"""

_EX1_GUIDE_VI = """
proc Guide2(t1: real, t2: real, t3: real, t4: real) provide latent {
  v <- sample.send{latent}(Gamma(exp(t1), exp(t2)));
  if.recv{latent} {
    return(v)
  } else {
    m <- sample.send{latent}(Beta(exp(t3), exp(t4)));
    return(v)
  }
}
"""

_EX2_MODEL = """
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

_EX2_GUIDE = """
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

_GPDSL_MODEL = """
proc GpDsl() consume latent provide obs {
  k <- call KernelGen();
  _ <- sample.send{obs}(Normal(k, 1.0));
  return(k)
}

proc KernelGen() consume latent {
  is_leaf <- sample.recv{latent}(Ber(0.6));
  if.send{latent} is_leaf {
    lengthscale <- sample.recv{latent}(Gamma(2.0, 2.0));
    return(lengthscale)
  } else {
    left <- call KernelGen();
    right <- call KernelGen();
    return(left + right)
  }
}
"""

_GPDSL_GUIDE = """
proc GpDslGuide() provide latent {
  call KernelGenGuide()
}

proc KernelGenGuide() provide latent {
  is_leaf <- sample.send{latent}(Ber(0.7));
  if.recv{latent} {
    lengthscale <- sample.send{latent}(Gamma(2.0, 1.0));
    return(lengthscale)
  } else {
    left <- call KernelGenGuide();
    right <- call KernelGenGuide();
    return(left + right)
  }
}
"""

# ---- extra (non-selected) benchmarks ---------------------------------------

_OUTLIERS_MODEL = """
proc Outliers() consume latent provide obs {
  prob_outlier <- sample.recv{latent}(Unif);
  is_outlier <- sample.recv{latent}(Ber(prob_outlier));
  _ <- sample.send{obs}(Normal(if is_outlier then 0.0 else 2.5,
                               if is_outlier then 10.0 else 0.5));
  return(is_outlier)
}
"""

# The MCMC guide of Sec. 2.2: it branches on the *old* value of is_outlier
# (passed as a parameter), proposing its negation with a small amount of
# noise, while following the same latent protocol as the model.
_OUTLIERS_GUIDE = """
proc OutliersGuide(old_is_outlier: bool) provide latent {
  prob_outlier <- sample.send{latent}(Beta(2.0, 5.0));
  if old_is_outlier {
    is_outlier <- sample.send{latent}(Ber(0.1));
    return(is_outlier)
  } else {
    is_outlier <- sample.send{latent}(Ber(0.9));
    return(is_outlier)
  }
}
"""

_COIN_MODEL = """
proc Coin() consume latent provide obs {
  bias <- sample.recv{latent}(Beta(2.0, 2.0));
  _ <- sample.send{obs}(Ber(bias));
  _ <- sample.send{obs}(Ber(bias));
  _ <- sample.send{obs}(Ber(bias));
  _ <- sample.send{obs}(Ber(bias));
  _ <- sample.send{obs}(Ber(bias));
  return(bias)
}
"""

_COIN_GUIDE = """
proc CoinGuide() provide latent {
  bias <- sample.send{latent}(Beta(3.0, 2.0));
  return(bias)
}
"""

_RANDOMWALK_MODEL = """
proc RandomWalk() consume latent provide obs {
  end <- call WalkStep(0.0);
  _ <- sample.send{obs}(Normal(end, 0.5));
  return(end)
}

proc WalkStep(position: real) consume latent {
  step <- sample.recv{latent}(Normal(0.0, 1.0));
  keep_going <- sample.recv{latent}(Ber(0.4));
  if.send{latent} keep_going {
    call WalkStep(position + step)
  } else {
    return(position + step)
  }
}
"""

_RANDOMWALK_GUIDE = """
proc RandomWalkGuide() provide latent {
  call WalkStepGuide()
}

proc WalkStepGuide() provide latent {
  step <- sample.send{latent}(Normal(0.0, 1.5));
  keep_going <- sample.send{latent}(Ber(0.4));
  if.recv{latent} {
    call WalkStepGuide()
  } else {
    return(step)
  }
}
"""

_BURGLARY_MODEL = """
proc Burglary() consume latent provide obs {
  burglary <- sample.recv{latent}(Ber(0.01));
  earthquake <- sample.recv{latent}(Ber(0.02));
  _ <- sample.send{obs}(Ber(if burglary then (if earthquake then 0.95 else 0.94)
                            else (if earthquake then 0.29 else 0.01)));
  return(burglary)
}
"""

_BURGLARY_GUIDE = """
proc BurglaryGuide() provide latent {
  burglary <- sample.send{latent}(Ber(0.3));
  earthquake <- sample.send{latent}(Ber(0.2));
  return(burglary)
}
"""

# Two divergent-control-flow time series: at every step the model announces a
# branch over the latent channel (``if.send``), so a lockstep particle
# population fractures into up to 2^T control-flow groups.  These are the
# stress tests for branch handling in the particle runtimes: the interpretive
# vectorizer re-executes every group from scratch when it splits, while the
# compiled backend partitions index sets and dispatches compiled sub-kernels.

_SWITCHING_MODEL = """
proc Switching() consume latent provide obs {
  x1 <- sample.recv{latent}(Normal(0.0, 1.0));
  m1 <- if.send{latent} x1 > 0.0 {
    _ <- sample.send{obs}(Normal(x1 + 1.0, 0.5));
    return(x1 + 1.0)
  } else {
    _ <- sample.send{obs}(Normal(x1 - 1.0, 2.0));
    return(x1 * 0.5 - 1.0)
  };
  x2 <- sample.recv{latent}(Normal(m1, 1.0));
  m2 <- if.send{latent} x2 > 0.0 {
    _ <- sample.send{obs}(Normal(x2 + 1.0, 0.5));
    return(x2 + 1.0)
  } else {
    _ <- sample.send{obs}(Normal(x2 - 1.0, 2.0));
    return(x2 * 0.5 - 1.0)
  };
  x3 <- sample.recv{latent}(Normal(m2, 1.0));
  m3 <- if.send{latent} x3 > 0.0 {
    _ <- sample.send{obs}(Normal(x3 + 1.0, 0.5));
    return(x3 + 1.0)
  } else {
    _ <- sample.send{obs}(Normal(x3 - 1.0, 2.0));
    return(x3 * 0.5 - 1.0)
  };
  x4 <- sample.recv{latent}(Normal(m3, 1.0));
  m4 <- if.send{latent} x4 > 0.0 {
    _ <- sample.send{obs}(Normal(x4 + 1.0, 0.5));
    return(x4 + 1.0)
  } else {
    _ <- sample.send{obs}(Normal(x4 - 1.0, 2.0));
    return(x4 * 0.5 - 1.0)
  };
  x5 <- sample.recv{latent}(Normal(m4, 1.0));
  m5 <- if.send{latent} x5 > 0.0 {
    _ <- sample.send{obs}(Normal(x5 + 1.0, 0.5));
    return(x5 + 1.0)
  } else {
    _ <- sample.send{obs}(Normal(x5 - 1.0, 2.0));
    return(x5 * 0.5 - 1.0)
  };
  return(x5)
}
"""

_SWITCHING_GUIDE = """
proc SwitchingGuide() provide latent {
  x1 <- sample.send{latent}(Normal(0.0, 1.5));
  s1 <- if.recv{latent} { return(x1) } else { return(x1) };
  x2 <- sample.send{latent}(Normal(x1, 1.5));
  s2 <- if.recv{latent} { return(x2) } else { return(x2) };
  x3 <- sample.send{latent}(Normal(x2, 1.5));
  s3 <- if.recv{latent} { return(x3) } else { return(x3) };
  x4 <- sample.send{latent}(Normal(x3, 1.5));
  s4 <- if.recv{latent} { return(x4) } else { return(x4) };
  x5 <- sample.send{latent}(Normal(x4, 1.5));
  s5 <- if.recv{latent} { return(x5) } else { return(x5) };
  return(x5)
}
"""

_JUMP_MODEL = """
proc Jump() consume latent provide obs {
  x1 <- sample.recv{latent}(Normal(0.0, 1.0));
  m1 <- if.send{latent} x1 < 1.0 {
    _ <- sample.send{obs}(Normal(x1, 0.5));
    return(x1)
  } else {
    j1 <- sample.recv{latent}(Gamma(2.0, 2.0));
    _ <- sample.send{obs}(Normal(x1 + j1, 1.5));
    return(x1 + j1)
  };
  x2 <- sample.recv{latent}(Normal(m1, 1.0));
  m2 <- if.send{latent} x2 < 1.0 {
    _ <- sample.send{obs}(Normal(x2, 0.5));
    return(x2)
  } else {
    j2 <- sample.recv{latent}(Gamma(2.0, 2.0));
    _ <- sample.send{obs}(Normal(x2 + j2, 1.5));
    return(x2 + j2)
  };
  x3 <- sample.recv{latent}(Normal(m2, 1.0));
  m3 <- if.send{latent} x3 < 1.0 {
    _ <- sample.send{obs}(Normal(x3, 0.5));
    return(x3)
  } else {
    j3 <- sample.recv{latent}(Gamma(2.0, 2.0));
    _ <- sample.send{obs}(Normal(x3 + j3, 1.5));
    return(x3 + j3)
  };
  x4 <- sample.recv{latent}(Normal(m3, 1.0));
  m4 <- if.send{latent} x4 < 1.0 {
    _ <- sample.send{obs}(Normal(x4, 0.5));
    return(x4)
  } else {
    j4 <- sample.recv{latent}(Gamma(2.0, 2.0));
    _ <- sample.send{obs}(Normal(x4 + j4, 1.5));
    return(x4 + j4)
  };
  x5 <- sample.recv{latent}(Normal(m4, 1.0));
  m5 <- if.send{latent} x5 < 1.0 {
    _ <- sample.send{obs}(Normal(x5, 0.5));
    return(x5)
  } else {
    j5 <- sample.recv{latent}(Gamma(2.0, 2.0));
    _ <- sample.send{obs}(Normal(x5 + j5, 1.5));
    return(x5 + j5)
  };
  return(m5)
}
"""

_JUMP_GUIDE = """
proc JumpGuide() provide latent {
  x1 <- sample.send{latent}(Normal(0.0, 1.2));
  m1 <- if.recv{latent} {
    return(x1)
  } else {
    j1 <- sample.send{latent}(Gamma(2.0, 1.5));
    return(x1 + j1)
  };
  x2 <- sample.send{latent}(Normal(m1, 1.2));
  m2 <- if.recv{latent} {
    return(x2)
  } else {
    j2 <- sample.send{latent}(Gamma(2.0, 1.5));
    return(x2 + j2)
  };
  x3 <- sample.send{latent}(Normal(m2, 1.2));
  m3 <- if.recv{latent} {
    return(x3)
  } else {
    j3 <- sample.send{latent}(Gamma(2.0, 1.5));
    return(x3 + j3)
  };
  x4 <- sample.send{latent}(Normal(m3, 1.2));
  m4 <- if.recv{latent} {
    return(x4)
  } else {
    j4 <- sample.send{latent}(Gamma(2.0, 1.5));
    return(x4 + j4)
  };
  x5 <- sample.send{latent}(Normal(m4, 1.2));
  m5 <- if.recv{latent} {
    return(x5)
  } else {
    j5 <- sample.send{latent}(Gamma(2.0, 1.5));
    return(x5 + j5)
  };
  return(m5)
}
"""

_SEASONAL_MODEL = """
proc Seasonal() consume latent provide obs {
  level <- sample.recv{latent}(Normal(0.0, 2.0));
  trend <- sample.recv{latent}(Normal(0.0, 0.5));
  noise <- sample.recv{latent}(Gamma(2.0, 4.0));
  _ <- sample.send{obs}(Normal(level + trend * 1.0, noise));
  _ <- sample.send{obs}(Normal(level + trend * 2.0, noise));
  _ <- sample.send{obs}(Normal(level + trend * 3.0, noise));
  return(trend)
}
"""

_SEASONAL_GUIDE = """
proc SeasonalGuide() provide latent {
  level <- sample.send{latent}(Normal(0.5, 1.0));
  trend <- sample.send{latent}(Normal(0.2, 0.5));
  noise <- sample.send{latent}(Gamma(2.0, 3.0));
  return(trend)
}
"""


# ---------------------------------------------------------------------------
# Growable streaming families
# ---------------------------------------------------------------------------


def streaming_sources(steps: int) -> Tuple[str, str]:
    """Model/guide sources of the ``stream_rw`` family unrolled to ``steps``.

    A Gaussian random walk conditioning on one noisy observation per step:
    latent state ``x_t ~ Normal(x_{t-1}, 1)`` and observation
    ``y_t ~ Normal(x_t, 0.5)``.  The program is *generated straight-line* for
    the requested length — every length certifies under the guide-type check
    and stays inside the compiled backend's fragment — which is what lets a
    streaming session grow its model one observation at a time while staying
    bit-identical to the equivalent one-shot run over the same prefix
    (see :mod:`repro.engine.streaming`).
    """
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"streaming_sources needs steps >= 1, got {steps}")
    model = ["proc StreamRW() consume latent provide obs {"]
    guide = ["proc StreamRWGuide() provide latent {"]
    prev = "0.0"
    for t in range(1, steps + 1):
        model.append(f"  x{t} <- sample.recv{{latent}}(Normal({prev}, 1.0));")
        model.append(f"  _ <- sample.send{{obs}}(Normal(x{t}, 0.5));")
        guide.append(f"  x{t} <- sample.send{{latent}}(Normal({prev}, 1.5));")
        prev = f"x{t}"
    model.append(f"  return(x{steps})")
    model.append("}")
    guide.append(f"  return(x{steps})")
    guide.append("}")
    return "\n".join(model) + "\n", "\n".join(guide) + "\n"


#: Growable model families a streaming session may open with ``grow: true``:
#: name -> callable producing ``(model_source, guide_source)`` for a step
#: count.  Fixed-source pairs buffer until their observation demand is met;
#: growable families re-unroll to the journal length on every push.
STREAMING_FAMILIES = {"stream_rw": streaming_sources}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def _build_registry() -> Dict[str, Benchmark]:
    benchmarks: List[Benchmark] = [
        Benchmark(
            name="lr",
            description="Bayesian linear regression",
            model_source=_LR_MODEL,
            model_entry="LinReg",
            guide_source=_LR_GUIDE,
            guide_entry="LinRegGuide",
            inference="IS",
            obs_values=(2.1, 3.9, 6.2, 8.1, 9.8),
            paper_table1=PaperTable1Row(True, 16, True),
        ),
        Benchmark(
            name="gmm",
            description="Gaussian mixture model",
            model_source=_GMM_MODEL,
            model_entry="Gmm",
            guide_source=_GMM_GUIDE,
            guide_entry="GmmGuide",
            inference="IS",
            obs_values=(-2.2, -1.8, 2.1, 2.4),
            paper_table1=PaperTable1Row(True, 44, True),
            paper_table2=PaperTable2Row("IS", 8.03, 185, 64.13, 38, 56.00),
        ),
        Benchmark(
            name="kalman",
            description="Kalman smoother",
            model_source=_KALMAN_MODEL,
            model_entry="Kalman",
            guide_source=_KALMAN_GUIDE,
            guide_entry="KalmanGuide",
            inference="IS",
            obs_values=(0.4, 0.9, 1.3, 1.9),
            paper_table1=PaperTable1Row(True, 32, True),
        ),
        Benchmark(
            name="sprinkler",
            description="Bayesian network (sprinkler)",
            model_source=_SPRINKLER_MODEL,
            model_entry="Sprinkler",
            guide_source=_SPRINKLER_GUIDE,
            guide_entry="SprinklerGuide",
            inference="IS",
            obs_values=(True,),
            paper_table1=PaperTable1Row(True, 22, True),
        ),
        Benchmark(
            name="hmm",
            description="Hidden Markov model",
            model_source=_HMM_MODEL,
            model_entry="Hmm",
            guide_source=_HMM_GUIDE,
            guide_entry="HmmGuide",
            inference="IS",
            obs_values=(0.8, 1.1, -0.9, -1.2),
            paper_table1=PaperTable1Row(True, 31, True),
        ),
        Benchmark(
            name="branching",
            description="Random control flow",
            model_source=_BRANCHING_MODEL,
            model_entry="Branching",
            guide_source=_BRANCHING_GUIDE,
            guide_entry="BranchingGuide",
            inference="IS",
            obs_values=(7,),
            branch_dependent=True,
            paper_table1=PaperTable1Row(True, 19, False),
            paper_table2=PaperTable2Row("IS", 1.74, 58, 8.49, 16, 7.48),
        ),
        Benchmark(
            name="marsaglia",
            description="Marsaglia polar algorithm",
            model_source=_MARSAGLIA_MODEL,
            model_entry="Marsaglia",
            guide_source=_MARSAGLIA_GUIDE,
            guide_entry="MarsagliaGuide",
            inference="IS",
            obs_values=(1.5,),
            recursive=True,
            branch_dependent=True,
            paper_table1=PaperTable1Row(True, 22, False),
        ),
        Benchmark(
            name="dp",
            description="Dirichlet process (stochastic memoization)",
            model_source=None,
            model_entry=None,
            expressible=False,
            paper_table1=PaperTable1Row(False, None, False),
            notes=(
                "Stochastic memoization is outside the coroutine calculus: the set "
                "of random variables depends on dynamically allocated memo tables, "
                "which cannot be described by a finite guidance protocol."
            ),
        ),
        Benchmark(
            name="ptrace",
            description="Poisson trace (Knuth's algorithm)",
            model_source=_PTRACE_MODEL,
            model_entry="Ptrace",
            guide_source=_PTRACE_GUIDE,
            guide_entry="PtraceGuide",
            inference="IS",
            obs_values=(3.0,),
            recursive=True,
            branch_dependent=True,
            paper_table1=PaperTable1Row(True, 11, False),
        ),
        Benchmark(
            name="aircraft",
            description="Aircraft detection",
            model_source=_AIRCRAFT_MODEL,
            model_entry="Aircraft",
            guide_source=_AIRCRAFT_GUIDE,
            guide_entry="AircraftGuide",
            inference="IS",
            obs_values=(-1.2, 3.4, True),
            paper_table1=PaperTable1Row(True, 32, True),
        ),
        Benchmark(
            name="weight",
            description="Unreliable weigh",
            model_source=_WEIGHT_MODEL,
            model_entry="Weigh",
            guide_source=_WEIGHT_GUIDE,
            guide_entry="WeighGuide",
            inference="VI",
            obs_values=(9.5,),
            guide_param_inits={"loc": 8.5, "log_scale": 0.0},
            paper_table1=PaperTable1Row(True, 8, True),
            paper_table2=PaperTable2Row("VI", 0.66, 35, 2.76, 7, 2.66),
        ),
        Benchmark(
            name="vae",
            description="Variational autoencoder (toy linear decoder)",
            model_source=_VAE_MODEL,
            model_entry="Vae",
            guide_source=_VAE_GUIDE,
            guide_entry="VaeGuide",
            inference="VI",
            obs_values=(0.7, -0.4, 0.5, -0.2),
            guide_param_inits={"m1": 0.0, "s1": 0.0, "m2": 0.0, "s2": 0.0},
            paper_table1=PaperTable1Row(True, 26, True),
            paper_table2=PaperTable2Row("VI", 10.36, 72, 34.96, 26, 32.69),
        ),
        Benchmark(
            name="ex-1",
            description="Fig. 5: conditional model with matching guide",
            model_source=_EX1_MODEL,
            model_entry="Model",
            guide_source=_EX1_GUIDE,
            guide_entry="Guide1",
            inference="IS",
            obs_values=(0.8,),
            branch_dependent=True,
            paper_table1=PaperTable1Row(True, 13, False),
            paper_table2=PaperTable2Row("IS", 0.75, 57, 5.44, 16, 5.27),
        ),
        Benchmark(
            name="ex-2",
            description="Fig. 6: recursive PCFG",
            model_source=_EX2_MODEL,
            model_entry="Pcfg",
            guide_source=_EX2_GUIDE,
            guide_entry="PcfgGuide",
            inference=None,
            recursive=True,
            branch_dependent=True,
            paper_table1=PaperTable1Row(True, 21, False),
        ),
        Benchmark(
            name="gp-dsl",
            description="Gaussian-process kernel DSL (PCFG over kernels)",
            model_source=_GPDSL_MODEL,
            model_entry="GpDsl",
            guide_source=_GPDSL_GUIDE,
            guide_entry="GpDslGuide",
            inference="IS",
            obs_values=(2.4,),
            recursive=True,
            branch_dependent=True,
            paper_table1=PaperTable1Row(True, 58, False),
        ),
        # -- extra synthetic benchmarks (not in the paper's selected table) ----
        Benchmark(
            name="outliers",
            description="Linear-regression outlier component (Sec. 2.2 MCMC guide)",
            model_source=_OUTLIERS_MODEL,
            model_entry="Outliers",
            guide_source=_OUTLIERS_GUIDE,
            guide_entry="OutliersGuide",
            inference="MCMC",
            obs_values=(2.3,),
            selected=False,
        ),
        Benchmark(
            name="coin",
            description="Beta-Bernoulli coin bias",
            model_source=_COIN_MODEL,
            model_entry="Coin",
            guide_source=_COIN_GUIDE,
            guide_entry="CoinGuide",
            inference="IS",
            obs_values=(True, True, False, True, True),
            selected=False,
        ),
        Benchmark(
            name="randomwalk",
            description="Geometric-length Gaussian random walk",
            model_source=_RANDOMWALK_MODEL,
            model_entry="RandomWalk",
            guide_source=_RANDOMWALK_GUIDE,
            guide_entry="RandomWalkGuide",
            inference="IS",
            obs_values=(1.0,),
            recursive=True,
            branch_dependent=True,
            selected=False,
        ),
        Benchmark(
            name="burglary",
            description="Burglary/earthquake alarm network",
            model_source=_BURGLARY_MODEL,
            model_entry="Burglary",
            guide_source=_BURGLARY_GUIDE,
            guide_entry="BurglaryGuide",
            inference="IS",
            obs_values=(True,),
            selected=False,
        ),
        Benchmark(
            name="switching",
            description="Regime-switching time series (5 announced branches)",
            model_source=_SWITCHING_MODEL,
            model_entry="Switching",
            guide_source=_SWITCHING_GUIDE,
            guide_entry="SwitchingGuide",
            inference="IS",
            obs_values=(1.4, 2.1, 2.8, 3.1, 3.9),
            branch_dependent=True,
            selected=False,
        ),
        Benchmark(
            name="jump",
            description="Jump-diffusion walk (branch-dependent latent structure)",
            model_source=_JUMP_MODEL,
            model_entry="Jump",
            guide_source=_JUMP_GUIDE,
            guide_entry="JumpGuide",
            inference="IS",
            obs_values=(0.6, 1.8, 2.4, 3.0, 2.2),
            branch_dependent=True,
            selected=False,
        ),
        Benchmark(
            name="seasonal",
            description="Local-level plus trend time series",
            model_source=_SEASONAL_MODEL,
            model_entry="Seasonal",
            guide_source=_SEASONAL_GUIDE,
            guide_entry="SeasonalGuide",
            inference="IS",
            obs_values=(1.1, 1.9, 3.2),
            selected=False,
        ),
        Benchmark(
            name="stream_rw",
            description="Gaussian random walk (growable streaming family)",
            model_source=streaming_sources(4)[0],
            model_entry="StreamRW",
            guide_source=streaming_sources(4)[1],
            guide_entry="StreamRWGuide",
            inference="IS",
            obs_values=(0.4, 1.1, 0.8, 1.6),
            selected=False,
            notes="Registered here as its 4-step unroll; streaming sessions "
                  "re-unroll it per pushed observation (STREAMING_FAMILIES).",
        ),
    ]
    return {b.name: b for b in benchmarks}


_REGISTRY = _build_registry()

#: Additional guide variants referenced by the soundness ablation (E6).
EX1_GUIDE_VI_SOURCE = _EX1_GUIDE_VI
EX1_GUIDE_UNSOUND_IS_SOURCE = _EX1_GUIDE_UNSOUND_IS
EX1_GUIDE_UNSOUND_VI_SOURCE = _EX1_GUIDE_UNSOUND_VI

# Parameterized guide variants used by the SVI engines and their gradient
# tests: the weight guide with a *directly* positive scale (constrained by a
# ParamStore softplus transform rather than exp-reparameterized inside the
# program), and a Beta guide exposing the coin model's proposal as two
# positive shape parameters.
_WEIGHT_GUIDE_POSITIVE = """
proc WeighGuideP(loc: real, scale: preal) provide latent {
  weight <- sample.send{latent}(Normal(loc, scale));
  return(weight)
}
"""

_COIN_GUIDE_PARAM = """
proc CoinGuideP(a: preal, b: preal) provide latent {
  bias <- sample.send{latent}(Beta(a, b));
  return(bias)
}
"""

WEIGHT_GUIDE_POSITIVE_SOURCE = _WEIGHT_GUIDE_POSITIVE
COIN_GUIDE_PARAM_SOURCE = _COIN_GUIDE_PARAM


def all_benchmarks() -> List[Benchmark]:
    """Every benchmark, selected and extra, in registry order."""
    return list(_REGISTRY.values())


def selected_benchmarks() -> List[Benchmark]:
    """The benchmarks that appear in the paper's Table 1."""
    return [b for b in _REGISTRY.values() if b.selected]


def get_benchmark(name: str) -> Benchmark:
    """Look up a benchmark by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc
