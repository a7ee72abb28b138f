"""Privacy-loss-distribution accounting for (subsampled) Gaussian releases.

The privacy loss of one release is a random variable; losses of composed
releases add, so their densities convolve. We discretize each loss density
onto a fixed grid, rounding losses up (pessimistic) so that every reported
epsilon is a valid upper bound, convolve with FFTs, and invert the resulting
delta(epsilon) curve.

Conventions: add/remove adjacency; the subsampled mechanism compares the
mixture (1-q) P0 + q P1 against P0 (remove direction). Mass beyond the upper
grid end is tracked separately and charged in full against delta.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccountingError, ParameterError

DEFAULT_GRID_STEP = 1e-4
DEFAULT_TRUNCATION_TAIL = 1e-10
MAX_GRID_POINTS = 40_000_000
_LOSS_RATIO_GUARD = 35.0  # mu above this means epsilon is astronomically large
_SCREEN_FACTOR = 5  # calibration probes compose first on a grid this much coarser


@dataclass(frozen=True)
class PrivacyLossDistribution:
    """Discretized loss density: mass[i] sits at grid_start + i * grid_step."""

    grid_start: float
    grid_step: float
    mass: np.ndarray
    truncated_mass: float

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=np.float64).copy()
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        if self.grid_step <= 0.0:
            raise ParameterError("grid_step must be positive")
        if self.truncated_mass < 0.0:
            raise ParameterError("truncated_mass must be nonnegative")

    def grid(self) -> np.ndarray:
        return self.grid_start + self.grid_step * np.arange(self.mass.shape[0])

    def total_mass(self) -> float:
        return float(self.mass.sum() + self.truncated_mass)

    def start_index(self) -> int:
        return int(round(self.grid_start / self.grid_step))


@dataclass(frozen=True)
class AccountantQuery:
    target_delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.target_delta < 1.0:
            raise ParameterError("target delta must lie in (0, 1)")


def _check_grid_points(npoints: int) -> None:
    """Refuse a loss grid, discretized or composed, above ``MAX_GRID_POINTS``."""
    if npoints > MAX_GRID_POINTS:
        raise AccountingError(
            f"loss grid would need {npoints} points; increase grid_step or sigma"
        )


def _discretize_from_cdf(cdf, lo: float, hi: float, grid_step: float) -> tuple[int, np.ndarray, float]:
    """Pessimistic (round-up) bucketing of a loss CDF onto the integer grid.

    Mass below the first grid point folds up into it; mass above the last
    point becomes truncated mass. Returns (start_index, mass, truncated).
    """
    i_lo = math.ceil(lo / grid_step - 1e-12)
    i_hi = max(math.ceil(hi / grid_step), i_lo)
    npoints = i_hi - i_lo + 1
    _check_grid_points(npoints)
    grid = (np.arange(i_lo, i_hi + 1)) * grid_step
    cdf_vals = cdf(grid)
    mass = np.empty(npoints)
    mass[0] = cdf_vals[0]
    mass[1:] = np.diff(cdf_vals)
    np.maximum(mass, 0.0, out=mass)
    truncated = max(1.0 - float(cdf_vals[-1]), 0.0)
    return i_lo, mass, truncated


def gaussian_pld(
    sensitivity: float,
    sigma: float,
    grid_step: float = DEFAULT_GRID_STEP,
    truncation_tail: float = DEFAULT_TRUNCATION_TAIL,
) -> PrivacyLossDistribution:
    """PLD of the Gaussian mechanism: loss ~ N(mu^2/2, mu^2), mu = sens/sigma."""
    _check_pld_args(sensitivity, sigma, grid_step, truncation_tail)
    mu = sensitivity / sigma
    if mu > _LOSS_RATIO_GUARD:
        raise AccountingError(f"sensitivity/sigma = {mu:.2f} is too large to discretize")
    # Deferred, as in _convolve: importing scipy loads a second BLAS with its own threads.
    from scipy.special import ndtr, ndtri

    z = -ndtri(truncation_tail)  # upper quantile of the standard normal
    mean = 0.5 * mu * mu
    lo = mean - z * mu
    hi = mean + z * mu

    def cdf(l: np.ndarray) -> np.ndarray:
        return ndtr((l - mean) / mu)

    i_lo, mass, truncated = _discretize_from_cdf(cdf, lo, hi, grid_step)
    return PrivacyLossDistribution(i_lo * grid_step, grid_step, mass, truncated)


def subsampled_gaussian_pld(
    sensitivity: float,
    sigma: float,
    q: float,
    grid_step: float = DEFAULT_GRID_STEP,
    truncation_tail: float = DEFAULT_TRUNCATION_TAIL,
) -> PrivacyLossDistribution:
    """PLD of the Poisson-subsampled Gaussian mechanism (remove adjacency).

    The output pair is A = (1-q) N(0, s^2) + q N(d, s^2) versus B = N(0, s^2);
    the loss of an outcome o is log(1 - q + q exp(l0(o))) where l0 is the
    plain Gaussian loss, so it is a monotone map of o and the CDF follows by
    inverting it.
    """
    _check_pld_args(sensitivity, sigma, grid_step, truncation_tail)
    if not 0.0 < q <= 1.0:
        raise ParameterError("subsampling rate q must lie in (0, 1]")
    if q == 1.0:
        return gaussian_pld(sensitivity, sigma, grid_step, truncation_tail)
    mu = sensitivity / sigma
    if mu > _LOSS_RATIO_GUARD:
        raise AccountingError(f"sensitivity/sigma = {mu:.2f} is too large to discretize")
    from scipy.special import ndtr, ndtri  # deferred, as in gaussian_pld

    log1mq = math.log1p(-q)
    z = -ndtri(truncation_tail)

    def outcome_of_loss(l: np.ndarray) -> np.ndarray:
        # Invert l = log(1 - q + q e^{l0}); stable near the lower support end.
        d = l - log1mq
        arg = (1.0 - q) * np.expm1(d) / q
        return (sigma / mu) * np.log(arg) + 0.5 * sensitivity

    def cdf(l: np.ndarray) -> np.ndarray:
        o = outcome_of_loss(np.asarray(l, dtype=np.float64))
        return (1.0 - q) * ndtr(o / sigma) + q * ndtr((o - sensitivity) / sigma)

    # The upper component's quantile bounds the mixture's upper tail.
    o_hi = sensitivity + sigma * z
    l0_hi = (mu / sigma) * o_hi - 0.5 * mu * mu
    hi = np.logaddexp(log1mq, math.log(q) + l0_hi)
    lo = log1mq + grid_step  # all loss mass lies strictly above log(1 - q)
    i_lo, mass, truncated = _discretize_from_cdf(cdf, lo, float(hi), grid_step)
    return PrivacyLossDistribution(i_lo * grid_step, grid_step, mass, truncated)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if min(a.shape[0], b.shape[0]) < 64:
        out = np.convolve(a, b)
    else:
        # Imported here so that commands without accounting never load scipy.fft.
        from scipy.fft import irfft, next_fast_len, rfft

        n = a.shape[0] + b.shape[0] - 1
        size = next_fast_len(n, True)
        fa = rfft(a, size)
        fb = fa if b is a else rfft(b, size)  # squaring transforms once
        out = irfft(fa * fb, size)[:n]
    np.maximum(out, 0.0, out=out)  # FFT rounding can leave tiny negatives
    return out


def _trim(
    start_idx: int, mass: np.ndarray, truncated: float, tail_budget: float
) -> tuple[int, np.ndarray, float]:
    """Bound array growth: fold a tiny lower tail up, truncate a tiny upper tail."""
    n = mass.shape[0]
    csum = np.cumsum(mass)
    total = csum[-1]
    hi_cut = int(np.searchsorted(csum, total - tail_budget, side="left"))
    if hi_cut < n - 1:
        truncated += float(total - csum[hi_cut])
        mass = mass[: hi_cut + 1].copy()
        n = mass.shape[0]
        csum = csum[: hi_cut + 1]
    lo_cut = int(np.searchsorted(csum, tail_budget, side="right"))
    if lo_cut > 0:
        folded = float(csum[lo_cut - 1])
        mass = mass[lo_cut:].copy()
        mass[0] += folded  # moving mass up the grid is pessimistic
        start_idx += lo_cut
    return start_idx, mass, truncated


def _compose_pair(
    a: PrivacyLossDistribution, b: PrivacyLossDistribution, tail_budget: float
) -> PrivacyLossDistribution:
    if abs(a.grid_step - b.grid_step) > 1e-15 * max(a.grid_step, b.grid_step):
        raise ParameterError("compose requires a common grid_step; rebin first")
    h = a.grid_step
    _check_grid_points(a.mass.shape[0] + b.mass.shape[0] - 1)
    mass = _convolve(a.mass, b.mass)
    truncated = 1.0 - (1.0 - a.truncated_mass) * (1.0 - b.truncated_mass)
    start_idx, mass, truncated = _trim(
        a.start_index() + b.start_index(), mass, truncated, tail_budget
    )
    return PrivacyLossDistribution(start_idx * h, h, mass, truncated)


def _compose_power(
    pld: PrivacyLossDistribution, m: int, tail_budget: float
) -> PrivacyLossDistribution:
    """m-fold self-composition by binary exponentiation of the density."""
    result: PrivacyLossDistribution | None = None
    base = pld
    while m > 0:
        if m & 1:
            result = base if result is None else _compose_pair(result, base, tail_budget)
        m >>= 1
        if m:
            base = _compose_pair(base, base, tail_budget)
    assert result is not None
    return result


def rebin(pld: PrivacyLossDistribution, grid_step: float) -> PrivacyLossDistribution:
    """Pessimistically re-bucket onto a coarser grid (losses round up)."""
    if grid_step < pld.grid_step:
        raise ParameterError("can only rebin onto a coarser grid")
    old = pld.grid()
    new_idx = np.ceil(old / grid_step - 1e-12).astype(np.int64)
    i_lo = int(new_idx.min())
    mass = np.zeros(int(new_idx.max()) - i_lo + 1)
    np.add.at(mass, new_idx - i_lo, pld.mass)
    return PrivacyLossDistribution(i_lo * grid_step, grid_step, mass, pld.truncated_mass)


def compose(plds: list[PrivacyLossDistribution]) -> PrivacyLossDistribution:
    """Convolve the loss densities of independent releases.

    Identical inputs are composed by repeated squaring (FFT); heterogeneous
    inputs fold pairwise. Truncated masses accumulate.
    """
    if not plds:
        raise ParameterError("compose requires at least one distribution")
    coarsest = max(p.grid_step for p in plds)
    plds = [p if p.grid_step == coarsest else rebin(p, coarsest) for p in plds]
    if len(plds) == 1:
        return plds[0]
    tail_budget = min(p.truncated_mass for p in plds)
    tail_budget = max(tail_budget, 1e-15)
    first = plds[0]
    identical = len(plds) >= 8 and all(
        p.grid_start == first.grid_start
        and p.mass.shape == first.mass.shape
        and np.array_equal(p.mass, first.mass)
        and p.truncated_mass == first.truncated_mass
        for p in plds[1:]
    )
    if identical:
        return _compose_power(first, len(plds), tail_budget)
    out = plds[0]
    for nxt in plds[1:]:
        out = _compose_pair(out, nxt, tail_budget)
    return out


def delta_at_epsilon(
    pld: PrivacyLossDistribution, epsilon: float, grid: np.ndarray | None = None
) -> float:
    """delta(eps) = E[(1 - e^{eps - Y})_+] + truncated mass.

    ``grid`` is ``pld.grid()``, which a caller evaluating many epsilons builds
    once. The grid ascends, so the losses above epsilon are one suffix of it.
    """
    grid = pld.grid() if grid is None else grid
    j = int(np.searchsorted(grid, epsilon, "right"))
    if j == grid.shape[0]:
        return pld.truncated_mass
    m = pld.mass[j:]
    return float(np.sum(m) - np.sum(m * np.exp(epsilon - grid[j:])) + pld.truncated_mass)


def epsilon_at_delta(pld: PrivacyLossDistribution, query: AccountantQuery | float) -> float:
    """Smallest nonnegative grid epsilon whose pessimistic delta meets the target.

    delta(eps) is nonincreasing in eps, so :func:`bisect.bisect_left` finds
    the first grid index that meets the target. Raises when the target delta
    is below the truncated mass; that means the grid was too coarse (or the
    tail too heavy) for this query, so rerun with a finer grid or smaller
    truncation tail.
    """
    delta = query.target_delta if isinstance(query, AccountantQuery) else float(query)
    if not 0.0 < delta < 1.0:
        raise ParameterError("target delta must lie in (0, 1)")
    if delta <= pld.truncated_mass:
        raise AccountingError(
            f"target delta {delta} is not above the truncated mass "
            f"{pld.truncated_mass}; rerun with a finer grid or smaller truncation tail"
        )
    grid = pld.grid()
    if delta_at_epsilon(pld, 0.0, grid) <= delta:
        return 0.0

    def meets(j: int) -> bool:
        return delta_at_epsilon(pld, float(grid[j]), grid) <= delta

    # delta at the last grid point equals truncated mass < delta: never probed.
    n = grid.shape[0]
    return max(float(grid[bisect.bisect_left(range(n), True, hi=n - 1, key=meets)]), 0.0)


def analytic_gaussian_epsilon(sensitivity: float, sigma: float, delta: float) -> float:
    """Exact epsilon(delta) of the Gaussian mechanism by root finding.

    Uses the exact tradeoff delta(eps) = Phi(mu/2 - eps/mu) - e^eps
    Phi(-mu/2 - eps/mu); this is the independent reference the discretized
    accountant is validated against.
    """
    _check_positive(sensitivity=sensitivity, sigma=sigma)
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    from scipy.optimize import brentq  # deferred: only this reference needs scipy.optimize
    from scipy.special import ndtr  # deferred, as in gaussian_pld

    mu = sensitivity / sigma

    def delta_of(eps: float) -> float:
        return float(ndtr(mu / 2.0 - eps / mu) - math.exp(eps) * ndtr(-mu / 2.0 - eps / mu))

    if delta_of(0.0) <= delta:
        return 0.0
    hi = 1.0
    while delta_of(hi) > delta:
        hi *= 2.0
        if hi > 1e6:
            raise AccountingError("failed to bracket the analytic epsilon")
    return float(brentq(lambda e: delta_of(e) - delta, 0.0, hi, xtol=1e-12, rtol=1e-12))


@dataclass(frozen=True)
class CalibrationResult:
    sigma: float
    epsilon: float  # composed epsilon actually achieved at this sigma
    mechanisms: int
    q: float
    delta: float
    grid_step: float
    truncated_mass: float

    def report(self) -> dict:
        return {
            "mechanisms": self.mechanisms,
            "sigma": self.sigma,
            "q": self.q,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "grid_step": self.grid_step,
            "truncated_mass": self.truncated_mass,
        }


def composed_epsilon(
    sensitivity: float,
    sigma: float,
    q: float,
    mechanisms: int,
    delta: float,
    grid_step: float = DEFAULT_GRID_STEP,
    truncation_tail: float = DEFAULT_TRUNCATION_TAIL,
) -> tuple[float, PrivacyLossDistribution]:
    """epsilon(delta) for m independent (subsampled) Gaussian releases."""
    if mechanisms < 1:
        raise ParameterError("mechanisms must be at least 1")
    single = subsampled_gaussian_pld(sensitivity, sigma, q, grid_step, truncation_tail)
    composed = (
        single
        if mechanisms == 1
        else _compose_power(single, mechanisms, max(truncation_tail, 1e-15))
    )
    return epsilon_at_delta(composed, AccountantQuery(delta)), composed


def account_sigma(
    sensitivity: float,
    sigma: float,
    q: float,
    mechanisms: int,
    delta: float,
    grid_step: float = DEFAULT_GRID_STEP,
    truncation_tail: float = DEFAULT_TRUNCATION_TAIL,
) -> CalibrationResult:
    """The accountant's report for m (subsampled) Gaussian releases at a fixed sigma."""
    eps, composed = composed_epsilon(
        sensitivity, sigma, q, mechanisms, delta, grid_step, truncation_tail
    )
    return CalibrationResult(sigma, eps, mechanisms, q, delta, grid_step, composed.truncated_mass)


def _screen(
    sensitivity: float,
    sigma: float,
    q: float,
    mechanisms: int,
    delta: float,
    epsilon: float,
    grid_step: float,
    truncation_tail: float,
) -> bool | None:
    """Decide one calibration probe on the coarse grid, or return None to defer.

    The probe composes on H = _SCREEN_FACTOR * grid_step. It accepts when the
    coarse epsilon meets the budget; that is not certified, so the caller
    confirms the returned sigma on the fine grid. It rejects only when the
    coarse PLD proves that the fine epsilon exceeds the budget:

    - Discretization and composition only move loss mass up, so the coarse
      composed loss is Y_c = Y + D with Y the true composed loss. Rounding up
      moves each mechanism's loss by less than H, or less than 2H at the
      subsampled lower support end log(1 - q), so D < 2mH except on two
      events: Y_c = +inf, of probability coarse.truncated_mass, and mass
      folded up without a bound on the distance, of probability at most
      F = (m + 2 * bit_length(m)) * max(truncation_tail, 1e-15). That is the
      lower tail below the first grid point of each of the m Gaussian
      discretizations and the lower tail of each of the at most
      2 * bit_length(m) trims of the binary-power composition.
    - Off both events, (1 - e^(eps - Y))_+ >= (1 - e^(eps + 2mH - Y_c))_+, and
      each event costs delta at most its probability, so
      delta_true(eps) >= delta_coarse(eps + 2mH) - coarse.truncated_mass - F.
    - The fine PLD is an upper bound and delta_true is nonincreasing, so if
      that lower bound exceeds delta, delta_fine(g) >= delta_true(g) >=
      delta_true(eps) > delta at every fine grid point g <= eps: the fine
      epsilon exceeds the budget (or the fine grid cannot certify delta).

    A wrong rejection could only raise the returned sigma, never the privacy
    loss. A coarse grid that cannot answer (AccountingError) defers to the
    fine one.
    """
    h = _SCREEN_FACTOR * grid_step
    try:
        coarse_eps, coarse = composed_epsilon(
            sensitivity, sigma, q, mechanisms, delta, h, truncation_tail
        )
    except AccountingError:
        return None
    if coarse_eps <= epsilon:
        return True
    folded = (mechanisms + 2 * int(mechanisms).bit_length()) * max(truncation_tail, 1e-15)
    lower = delta_at_epsilon(coarse, epsilon + 2 * mechanisms * h)
    if lower > delta + coarse.truncated_mass + folded:
        return False
    return None


def _smallest_sigma(
    meets: Callable[[float], bool], sensitivity: float, start: float, rel_tol: float
) -> float:
    """Smallest sigma that ``meets`` the budget, to a relative tolerance.

    Doubles ``start`` until it is accepted, halves it while the half is
    accepted, then bisects geometrically; returns the accepted upper end.
    """
    hi = start
    while not meets(hi):
        hi *= 2.0
        if hi > 1e9 * sensitivity:
            raise AccountingError("failed to bracket a sufficient sigma")
    lo = hi / 2.0
    while lo > sensitivity * 1e-6 and meets(lo):
        hi = lo
        lo /= 2.0
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_sigma_for_budget(
    sensitivity: float,
    epsilon: float,
    delta: float,
    q: float = 1.0,
    mechanisms: int = 1,
    grid_step: float = DEFAULT_GRID_STEP,
    truncation_tail: float = DEFAULT_TRUNCATION_TAIL,
    rel_tol: float = 1e-2,
) -> CalibrationResult:
    """Smallest noise scale whose composed accountant epsilon meets the budget.

    Bisection on sigma against the PLD accountant itself, so the returned
    sigma is guaranteed consistent with the reported (pessimistic) epsilon.
    Each probe is first screened on a grid _SCREEN_FACTOR times coarser
    (:func:`_screen`); only probes it cannot decide compose on the fine grid.
    The fine reports are kept by sigma for the whole call, so no sigma
    composes twice on the fine grid, and the report returned is the fine
    grid's. Screen rejections are certified, and every screen acceptance
    lies at or above the returned sigma, so when the fine grid meets the
    budget there (and so, as epsilon falls with sigma, at each of them), the
    screened pass took the same path as the fine-only bisection. When it
    does not, the bisection reruns without the screen and reuses the fine
    reports the screened pass made.
    """
    _check_positive(sensitivity=sensitivity, epsilon=epsilon, rel_tol=rel_tol)
    if mechanisms < 1:
        raise ParameterError("mechanisms must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    fine: dict[float, CalibrationResult | None] = {}  # None: the fine grid cannot account it

    def meets_fine(sig: float) -> bool:
        if sig not in fine:
            try:
                fine[sig] = account_sigma(
                    sensitivity, sig, q, mechanisms, delta, grid_step, truncation_tail
                )
            except AccountingError:
                fine[sig] = None
        return fine[sig] is not None and fine[sig].epsilon <= epsilon

    def meets_screened(sig: float) -> bool:
        decided = _screen(
            sensitivity, sig, q, mechanisms, delta, epsilon, grid_step, truncation_tail
        )
        return meets_fine(sig) if decided is None else decided

    # Basic composition gives a sufficient (loose) starting noise level.
    per_eps = epsilon / mechanisms
    per_delta = delta / (2.0 * mechanisms)
    start = sensitivity * math.sqrt(2.0 * math.log(1.25 / per_delta)) / per_eps
    sigma = _smallest_sigma(meets_screened, sensitivity, start, rel_tol)
    if not meets_fine(sigma):
        sigma = _smallest_sigma(meets_fine, sensitivity, start, rel_tol)
    return fine[sigma]


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:  # also false for NaN
            raise ParameterError(f"{name} must be positive and finite")


def _check_pld_args(sensitivity: float, sigma: float, grid_step: float, tail: float) -> None:
    _check_positive(sensitivity=sensitivity, sigma=sigma, grid_step=grid_step)
    if not 0.0 < tail < 1.0:
        raise ParameterError("truncation_tail must lie in (0, 1)")
