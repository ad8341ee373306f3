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

from .errors import ConfigError, _as_float, require

# log2 of a bound above every finite float (the largest is just below 2^1024).
_FLOAT_LOG2_BOUND = 1025


def _require_radon_number(r: int) -> None:
    """A ConfigError naming ``r`` unless it is a Radon number (a dimension
    + 2, so >= 3) below 2**64, which keeps the floats of r, r * delta_base
    and r^3 finite."""
    require(r >= 3, "r", "be >= 3 (a Radon number)", r)
    require(r < 2**64, "r", "be >= 3 and below 2**64 (a Radon number)", r)


def _exact_pow(base: int, exponent: int):
    """base ** exponent (base >= 2, exponent >= 0) as an exact integer while
    it is at most about 2^1025, else +inf, which is what _as_float makes of
    the larger integer; that integer is never built."""
    if exponent > _FLOAT_LOG2_BOUND / math.log2(base):
        return math.inf
    return base**exponent


def _pow(base: float, exponent) -> float:
    """float(base) ** exponent for base >= 0 and exponent > 0 (any exponent
    for base 2), saturating to +inf (base above 1) or 0 (base below 1) where
    the float power raises."""
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
        for name in ("alpha_eps", "beta_eps"):
            value = getattr(self, name)
            require(math.isfinite(value) and value >= 0, name, "be finite and >= 0", value)
        require(self.k >= 1, "k", "be >= 1", self.k)
        require(self.kappa >= 1, "kappa", "be >= 1", self.kappa)
        if self.alpha_eps == 0 and self.beta_eps == 0:
            raise ConfigError("beta_eps and alpha_eps are both 0, so no sample size is positive")

    def base_sample_size(self, delta: float) -> float:
        require(0.0 < delta < 1.0, "delta", "lie in (0, 1)", delta)
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
    _require_radon_number(r)
    require(0.0 < delta_base < 1.0, "delta_base", "lie in (0, 1)", delta_base)
    require(h >= 0, "h", "be >= 0 (a tree height)", h)
    vacuous = r * delta_base >= 1.0
    log_term = math.log2(r * delta_base)
    log2_delta = _pow(2, h) * log_term if log_term else 0.0
    return BoostedConfidence(delta=_pow(2, log2_delta), log2_delta=log2_delta, vacuous=vacuous)


def sample_complexity_vc(eps: float, delta: float, proof_form: bool = False) -> float:
    """Sample size for learners over classes of finite VC dimension.

    Default constants: alpha = 4 ln 2 / eps^2, beta = 4 / (eps^2 log2 e),
    k = 2.  ``proof_form`` switches to the alternative linear bound
    (ln 2 + 4 log2(1/delta) / log2 e) / eps^2 derived from the same
    concentration step.
    """
    require(0.0 < eps < 1.0, "eps", "lie in (0, 1)", eps)
    require(0.0 < delta <= 1.0, "delta", "lie in (0, 1]", delta)
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
    require(0.0 < delta <= 1.0, "delta", "lie in (0, 1]", delta)
    require(rho >= 0.0, "rho", "be >= 0", rho)
    if not eps > 2.0 * rho:  # NaN included
        raise ConfigError(f"infeasible eps: need eps > 2 * rho = {2.0 * rho}, got {eps}")
    return math.log2(1.0 / delta) / (2.0 * (eps - 2.0 * rho) ** 2)


def _scaled_pow(r: int, h: int, n: float) -> float:
    """r^h * n (r >= 2, h >= 0, n > 0): exact for an integer n, and taken in
    log2 space where r^h alone passes float range."""
    replicas = _exact_pow(r, h)
    if float(n).is_integer():
        return _as_float(replicas * int(n))
    scale = _as_float(replicas)
    if scale == math.inf and n < 1:  # the product may still be finite
        return _pow(2, _as_float(h) * math.log2(r) + math.log2(n))
    return scale * float(n)


def radon_sample_size(r: int, h: int, n_base: float) -> float:
    """Total sample size r^h * n_base of the aggregation scheme."""
    require(r >= 3, "r", "be >= 3 (a Radon number)", r)
    require(h >= 0, "h", "be >= 0 (a tree height)", h)
    require(n_base > 0, "n_base", "be > 0", n_base)
    return _scaled_pow(r, h, n_base)


def sequential_sample_size(params: ComplexityParams, r: int, delta_base: float, h: int) -> float:
    """Sample size the base learner alone needs for the boosted guarantee:
    (alpha + 2^h * beta * log2(1 / (r * delta_base))) ** k."""
    _require_radon_number(r)
    require(h >= 0, "h", "be >= 0 (a tree height)", h)
    rule = f"lie in (0, 1/r) = (0, {1.0 / r})"
    require(0.0 < delta_base < 1.0 / r, "delta_base", rule, delta_base)
    log_term = math.log2(1.0 / (r * delta_base))
    growth = _pow(2, h) * params.beta_eps * log_term if params.beta_eps else 0.0
    return _pow(params.alpha_eps + growth, params.k)


def choose_height(m_samples: float, k: int) -> int:
    """Tree height ceil((log2 M - log2 log2 M) / k) that makes the
    aggregation runtime polylogarithmic in M."""
    require(2.0 < m_samples < math.inf, "m_samples", "be finite and > 2", m_samples)
    require(k >= 1, "k", "be >= 1", k)
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

    With c >= r^h this reduces to n^kappa + h * r^3.  For h >= 1 it is +inf
    once r^(h+3) / c, a lower bound on the second term, is past float
    range; at h = 0 the second term is 0 for any r.
    """
    require(n > 0, "n", "be > 0", n)
    require(r >= 3, "r", "be >= 3 (a Radon number)", r)
    require(h >= 0, "h", "be >= 0 (a tree height)", h)
    require(kappa >= 1, "kappa", "be >= 1", kappa)
    require(c_workers >= 1, "c_workers", "be >= 1", c_workers)
    if h and h + 3 > (_FLOAT_LOG2_BOUND + math.log2(c_workers)) / math.log2(r):
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
    if not n_base:
        raise ConfigError(
            f"alpha_eps, beta_eps and k give a base sample size of 0 at delta_base={delta_base}: "
            "(alpha_eps + beta_eps * log2(1 / delta_base)) ** k is below the smallest float"
        )
    n_radon = radon_sample_size(r, h, n_base)
    m_seq = sequential_sample_size(params, r, delta_base, h)
    m_approx = _scaled_pow(2, h, n_base)
    h_star = choose_height(m_seq, params.k) if 2.0 < m_seq < math.inf else None

    runtime_radon = runtime_model(n_base, r, h, params.kappa, c_workers)
    runtime_seq = _pow(m_seq, params.kappa)
    cost = _pow(n_base, params.kappa)  # 0 where n_base ** kappa underflows
    overhead = _as_float(h * r**3) / cost if cost else (math.inf if h else 0.0)
    gain = _pow(2, h * params.k * params.kappa)
    speedup = gain / (1.0 + overhead)
    if gain == overhead == math.inf:  # inf / inf: take the quotient in log2 space
        per_kappa = _as_float(h * params.k) + math.log2(n_base)  # log2(2^(h k) * n_base)
        kappa_term = _as_float(params.kappa) * per_kappa if per_kappa else 0.0  # no inf * 0
        log2_speedup = kappa_term - math.log2(h * r**3)
        speedup = _pow(2, log2_speedup)
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
