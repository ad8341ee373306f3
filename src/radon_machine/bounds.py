"""Closed-form calculators for the guarantees of Radon-point aggregation.

Aggregating r independent hypotheses through one Radon point squares the
failure probability (up to the union-bound factor r), so a tree of height h
turns a per-learner failure bound delta_base into

    delta = (r * delta_base) ** (2 ** h),

which is meaningful whenever r * delta_base < 1 and shrinks doubly
exponentially in h as long as delta_base <= 1 / (2r).  The remaining
calculators convert between sample sizes, pick tree heights, and estimate
runtime, speed-up, and data cost of the scheme against running the base
learner on enough data for the same guarantee.  Asymptotic-order estimates
evaluate their formulas with all hidden constants set to 1 and are
order-of-magnitude indicators, not exact predictions.

Integer powers such as r^h and 2^h are exact while they fit a float and
+inf beyond, without the larger integer being built; float powers past
float range are +inf too.  A tall tree or a large exponent gives inf.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ConfigError

# log2 of a bound above every finite float (the largest is just below 2^1024).
_FLOAT_LOG2_BOUND = 1025


def _as_float(value) -> float:
    """float() that saturates to +inf instead of raising on huge ints."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _exact_pow(base: int, exponent: int):
    """base ** exponent (base >= 2, exponent >= 0) as an exact integer while
    it is at most about 2^1025, else +inf, which is what _as_float makes of
    the larger integer; that integer is never built."""
    if exponent > _FLOAT_LOG2_BOUND / math.log2(base):
        return math.inf
    return base**exponent


def _pow(base: float, exponent) -> float:
    """float(base) ** exponent for base >= 0 and exponent > 0, saturating to
    +inf (base above 1) or 0 (base below 1) where the float power raises."""
    try:
        return float(base) ** exponent
    except OverflowError:
        if base > 1:
            return math.inf
        return 1.0 if base == 1 else 0.0


@dataclass(frozen=True)
class ComplexityParams:
    """Base-learner complexity model.

    Sample complexity (alpha_eps + beta_eps * log2(1 / delta)) ** k examples
    for an (eps, delta)-guarantee, and runtime growing as n ** kappa.
    """

    alpha_eps: float
    beta_eps: float
    k: int
    kappa: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha_eps) and self.alpha_eps >= 0):
            raise ConfigError(f"alpha_eps must be finite and >= 0, got {self.alpha_eps}")
        if not (math.isfinite(self.beta_eps) and self.beta_eps >= 0):
            raise ConfigError(f"beta_eps must be finite and >= 0, got {self.beta_eps}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.kappa < 1:
            raise ConfigError(f"kappa must be >= 1, got {self.kappa}")
        if self.alpha_eps == 0 and self.beta_eps == 0:
            raise ConfigError("beta_eps and alpha_eps are both 0, so no sample size is positive")

    def base_sample_size(self, delta: float) -> float:
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {delta}")
        return _pow(self.alpha_eps + self.beta_eps * math.log2(1.0 / delta), self.k)


@dataclass(frozen=True)
class BoostedConfidence:
    """Failure bound after h aggregation rounds, kept in log space too."""

    delta: float
    log2_delta: float
    vacuous: bool


@dataclass
class BoundReport:
    """All closed-form quantities for one (params, r, delta_base, h) choice."""

    r: int
    h: int
    delta_base: float
    delta: float
    log2_delta: float
    n_base: float
    n_radon: float
    m_sequential: float
    m_sequential_approx: float
    h_star: int | None
    runtime_radon_model: float
    runtime_sequential_model: float
    speedup_estimate: float
    inefficiency_estimate: float
    data_inefficiency: float
    guarantee_valid: bool

    def to_dict(self) -> dict:
        return asdict(self)


def boosted_confidence(r: int, delta_base: float, h: int) -> BoostedConfidence:
    """(r * delta_base) ** (2 ** h), evaluated in log space.

    The ``vacuous`` flag is set when r * delta_base >= 1, in which case the
    bound is still computed but guarantees nothing.
    """
    if r < 3:
        raise ConfigError(f"r must be >= 3 (a Radon number), got {r}")
    if not 0.0 < delta_base < 1.0:
        raise ConfigError(f"delta_base must lie in (0, 1), got {delta_base}")
    if h < 0:
        raise ConfigError(f"h must be >= 0 (a tree height), got {h}")
    vacuous = r * delta_base >= 1.0
    log_term = math.log2(r * delta_base)
    log2_delta = _as_float(_exact_pow(2, h)) * log_term if log_term else 0.0
    if log2_delta < -1080.0:
        delta = 0.0
    elif log2_delta > 1023.0:
        delta = math.inf
    else:
        delta = 2.0**log2_delta
    return BoostedConfidence(delta=delta, log2_delta=log2_delta, vacuous=vacuous)


def sample_complexity_vc(eps: float, delta: float, proof_form: bool = False) -> float:
    """Sample size for learners over classes of finite VC dimension.

    Default constants: alpha = 4 ln 2 / eps^2, beta = 4 / (eps^2 log2 e),
    k = 2.  ``proof_form`` switches to the alternative linear bound
    (ln 2 + 4 log2(1/delta) / log2 e) / eps^2 derived from the same
    concentration step.
    """
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < delta <= 1.0:
        raise ConfigError(f"delta must lie in (0, 1], got {delta}")
    inv_eps_sq = 1.0 / (eps * eps)
    log_term = math.log2(1.0 / delta)
    if proof_form:
        return inv_eps_sq * (math.log(2.0) + 4.0 * log_term / math.log2(math.e))
    alpha = 4.0 * math.log(2.0) * inv_eps_sq
    beta = 4.0 * inv_eps_sq / math.log2(math.e)
    return (alpha + beta * log_term) ** 2


def sample_complexity_rademacher(eps: float, delta: float, rho: float) -> float:
    """Sample size for classes of Rademacher complexity rho:
    log2(1/delta) / (2 (eps - 2 rho)^2); requires eps > 2 rho."""
    if not 0.0 < delta <= 1.0:
        raise ConfigError(f"delta must lie in (0, 1], got {delta}")
    if rho < 0.0:
        raise ConfigError(f"rho must be >= 0, got {rho}")
    if eps <= 2.0 * rho:
        raise ConfigError(f"infeasible eps: need eps > 2 * rho = {2.0 * rho}, got {eps}")
    return math.log2(1.0 / delta) / (2.0 * (eps - 2.0 * rho) ** 2)


def radon_sample_size(r: int, h: int, n_base: float) -> float:
    """Total sample size r^h * n_base of the aggregation scheme."""
    if r < 3 or h < 0 or not n_base > 0:
        raise ConfigError("need r >= 3, h >= 0, n_base > 0")
    replicas = _exact_pow(r, h)
    if float(n_base).is_integer():
        return _as_float(replicas * int(n_base))
    return _as_float(replicas) * float(n_base)


def sequential_sample_size(params: ComplexityParams, r: int, delta_base: float, h: int) -> float:
    """Sample size the base learner alone needs for the boosted guarantee:
    (alpha + 2^h * beta * log2(1 / (r * delta_base))) ** k."""
    if r < 3 or h < 0:
        raise ConfigError("need r >= 3 and h >= 0")
    if not 0.0 < delta_base < 1.0 / r:
        raise ConfigError(f"delta_base must lie in (0, 1/r) = (0, {1.0 / r}), got {delta_base}")
    log_term = math.log2(1.0 / (r * delta_base))
    growth = _as_float(_exact_pow(2, h)) * params.beta_eps * log_term if params.beta_eps else 0.0
    return _pow(params.alpha_eps + growth, params.k)


def choose_height(m_samples: float, k: int) -> int:
    """Tree height ceil((log2 M - log2 log2 M) / k) that makes the
    aggregation runtime polylogarithmic in M."""
    if not m_samples > 2.0:
        raise ConfigError(f"need M > 2, got {m_samples}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    ld_m = math.log2(m_samples)
    value = (ld_m - math.log2(ld_m)) / k
    # Snap values within a few ulps of an integer before taking the ceiling.
    nearest = round(value)
    if abs(value - nearest) <= 1e-12 * max(1.0, abs(value)):
        value = nearest
    return max(1, math.ceil(value))


def runtime_model(n: float, r: int, h: int, kappa: int, c_workers: int) -> float:
    """Abstract cost of the scheme on c workers:

    max(1, r^h / c) * n^kappa + r^3 * sum_{i=1..h} ceil(r^i / c).

    With c >= r^h this reduces to n^kappa + h * r^3.  It is +inf once
    r^(h+3) / c, a lower bound on the second term, is past float range.
    """
    if not n > 0 or r < 3 or h < 0 or kappa < 1 or c_workers < 1:
        raise ConfigError("need n > 0, r >= 3, h >= 0, kappa >= 1, c_workers >= 1")
    if h + 3 > (_FLOAT_LOG2_BOUND + math.log2(c_workers)) / math.log2(r):
        return math.inf
    try:
        queue_factor = max(1.0, float(r**h) / c_workers)
    except OverflowError:  # c_workers (or r^h, then c_workers too) past float range
        queue_factor = max(1.0, r**h / c_workers)
    aggregation = r**3 * sum(-(-(r**i) // c_workers) for i in range(1, h + 1))
    return queue_factor * _pow(n, kappa) + _as_float(aggregation)


def efficiency_report(
    params: ComplexityParams, r: int, delta_base: float, h: int, c_workers: int
) -> BoundReport:
    """Assemble every calculator output for one parameter choice.

    speedup_estimate: 2^(h k kappa) / (1 + h r^3 / n_base^kappa)
    inefficiency_estimate: M ** log2(r)
    data_inefficiency: (M / log2 M) ** (log2(r) / k)

    all with hidden constants 1, where M is the sequential sample size;
    h_star is None unless 2 < M < inf.
    """
    boosted = boosted_confidence(r, delta_base, h)
    n_base = params.base_sample_size(delta_base)
    n_radon = radon_sample_size(r, h, n_base)
    m_seq = sequential_sample_size(params, r, delta_base, h)
    m_approx = _as_float(_exact_pow(2, h)) * n_base
    h_star = choose_height(m_seq, params.k) if 2.0 < m_seq < math.inf else None

    runtime_radon = runtime_model(n_base, r, h, params.kappa, c_workers)
    runtime_seq = _pow(m_seq, params.kappa)
    cost = _pow(n_base, params.kappa)  # 0 where n_base ** kappa underflows
    overhead = _as_float(h * r**3) / cost if cost else (math.inf if h else 0.0)
    speedup = _as_float(_exact_pow(2, h * params.k * params.kappa)) / (1.0 + overhead)
    inefficiency = _pow(m_seq, math.log2(r)) if m_seq > 0 else math.inf
    ld_m = math.log2(m_seq) if m_seq > 1.0 else math.nan
    ratio = m_seq / ld_m if m_seq < math.inf else math.inf
    data_ineff = _pow(ratio, math.log2(r) / _as_float(params.k)) if m_seq > 1.0 else math.nan

    return BoundReport(
        r=r,
        h=h,
        delta_base=delta_base,
        delta=boosted.delta,
        log2_delta=boosted.log2_delta,
        n_base=n_base,
        n_radon=n_radon,
        m_sequential=m_seq,
        m_sequential_approx=m_approx,
        h_star=h_star,
        runtime_radon_model=runtime_radon,
        runtime_sequential_model=runtime_seq,
        speedup_estimate=speedup,
        inefficiency_estimate=inefficiency,
        data_inefficiency=data_ineff,
        guarantee_valid=0.0 < delta_base <= 1.0 / (2 * r),
    )
