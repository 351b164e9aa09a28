"""Uniformity diagnostics for p-value sets.

Three checks are reported side by side: a chi-squared test over equal-width
bins, a Kolmogorov-Smirnov test, and containment of the ECDF difference
trajectory in a simultaneous confidence band. None of them is designated
the single arbiter; callers decide how to combine them.

The band's coverage is exact, not simulated: it comes from a forward
recursion over the binomial increments of the ECDF counts between grid
points, so building a band draws no random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special, stats

from .rng import substream

__all__ = [
    "PValueSet",
    "UniformityVerdict",
    "EcdfBand",
    "ecdf_band",
    "band_contains",
    "uniformity_test",
    "rank_histogram",
]

# Dedicated derivation root so diagnostics never share streams with pipelines.
_KS_JITTER_SEED = 7602
_MAX_GRID = 100


@dataclass(frozen=True)
class PValueSet:
    """Simulation p-values, optionally with declared discrete granularity.

    granularity M means the values live on the grid {0, 1/M, ..., 1}.
    """

    values: np.ndarray
    granularity: int | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", vals)
        if vals.size == 0:
            raise ValueError("p-value set must be nonempty")
        if np.any((vals < 0.0) | (vals > 1.0)) or not np.all(np.isfinite(vals)):
            raise ValueError("p-values must lie in [0, 1]")
        if self.granularity is not None:
            m = int(self.granularity)
            if m < 1:
                raise ValueError("granularity must be a positive integer")
            ranks = vals * m
            if np.max(np.abs(ranks - np.round(ranks))) > 1e-6:
                raise ValueError("values are not on the declared granularity grid")
            object.__setattr__(self, "granularity", m)

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class EcdfBand:
    """Simultaneous confidence band for the ECDF difference trajectory.

    coverage is the requested coverage. coverage_exact is the exact
    probability that s null values keep every grid count inside
    count_lower..count_upper; it is at least coverage. pointwise_level is
    1 - delta for the pointwise miss probability delta the bounds come from.
    """

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    count_lower: np.ndarray
    count_upper: np.ndarray
    coverage: float
    coverage_exact: float
    pointwise_level: float
    s: int
    granularity: int | None


def _grid_for(s: int) -> np.ndarray:
    g = min(s, _MAX_GRID)
    return np.arange(1, g + 1) / g


def _null_cdf_at_grid(s: int, granularity: int | None) -> np.ndarray:
    g = min(s, _MAX_GRID)
    j = np.arange(1, g + 1)
    if granularity is None:
        return j / g
    m = int(granularity)
    # count of support points k/m with k*g <= j*m, done in exact integers
    return ((j * m) // g + 1) / (m + 1)


def _ecdf_counts(sorted_values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.searchsorted(sorted_values, grid, side="right")


class _NullCounts:
    """Law of the ECDF counts at the grid points for s null values.

    The count C_j of values at or below grid point j is Binomial(s, p_j), and
    given C_{j-1} = c the increment C_j - c is Binomial(s - c, q_j) with
    q_j = (p_j - p_{j-1}) / (1 - p_{j-1}). The band's simultaneous coverage
    follows from these increments by a forward recursion over the counts
    (Sailynoja, Burkner & Vehtari 2022, Stat. Comput. 32:32).
    """

    def __init__(self, s: int, granularity: int | None):
        self.s = s
        self.grid = _grid_for(s)
        probs = _null_cdf_at_grid(s, granularity)
        k = np.arange(s + 1)
        logf = special.gammaln(k + 1.0)
        p = probs[:, None]
        pmf = np.exp(logf[s] - logf[k] - logf[s - k]
                     + special.xlogy(k, p) + special.xlog1py(s - k, -p))
        self.cdf = np.cumsum(pmf, axis=1)                     # P(C_j <= k)
        self.sf = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]   # P(C_j > k), k < s
        del pmf

        # log P(c -> c') = alpha[c] + beta[c' - c] + gamma[c'] for 0 < q < 1,
        # so each step of the recursion is one convolution. Any tilt lam
        # gives the same sum; centring it on the null count keeps all three
        # exponentials within floating range.
        prev = np.concatenate(([0.0], probs[:-1]))
        self.q = (probs - prev) / (1.0 - prev)
        # steps with q of 0 or 1 move no count or every count; never convolved
        qm = np.where((self.q > 0.0) & (self.q < 1.0), self.q, 0.5)[:, None]
        lq, l1q = np.log(qm), np.log1p(-qm)
        lam = np.log(s * (1.0 - prev[:, None]) + 0.5) + l1q
        self.alpha = logf[s - k] + (s - k) * l1q + lam * k
        self.beta = -logf[k] + k * (lq - l1q + lam)
        self.gamma = -logf[s - k] - lam * k

    def count_bounds(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise binomial quantiles at delta/2 and 1 - delta/2 per grid point."""
        x = delta / 2.0
        lo = np.count_nonzero(self.cdf < x, axis=1)
        up = np.count_nonzero(self.sf > x, axis=1)
        # widen to always contain the null mean so the diff band brackets zero
        mean = self.s * self.grid
        return np.minimum(lo, mean), np.maximum(up, mean)

    def coverage(self, count_lower: np.ndarray, count_upper: np.ndarray) -> float:
        """Exact probability that every grid count stays inside the bounds."""
        s = self.s
        lows = np.ceil(count_lower).astype(np.int64)
        ups = np.floor(count_upper).astype(np.int64)
        # state[i] = P(C_j = a + i and all counts so far inside), a <= C_j <= b
        a = b = 0
        state = np.ones(1)
        for j, q in enumerate(self.q):
            lo = max(int(lows[j]), a)
            up = min(int(ups[j]), b if q == 0.0 else s)
            if lo > up:
                return 0.0
            if q == 0.0:
                state = state[lo - a:up - a + 1]
            elif q == 1.0:
                if up != s:
                    return 0.0
                state = np.full(1, state.sum())
            else:
                al = self.alpha[j, a:b + 1]
                be = self.beta[j, :up - a + 1]
                am, bm = al.max(), be.max()
                conv = np.convolve(state * np.exp(al - am), np.exp(be - bm))
                state = conv[lo - a:up - a + 1] * np.exp(self.gamma[j, lo:up + 1] + (am + bm))
            a, b = lo, up
        return float(state.sum())


@lru_cache(maxsize=64)
def _calibrated_band(s: int, granularity: int | None, coverage: float) -> EcdfBand:
    null = _NullCounts(s, granularity)
    # Bonferroni: at this pointwise miss probability the band covers at least
    # `coverage`, whatever the dependence between grid points.
    bonferroni = (1.0 - coverage) / null.grid.size
    # A count bound moves only where delta/2 crosses a binomial tail
    # probability. Each such probability and the float just below it give
    # every distinct band, each at the loosest delta that yields it.
    tails = np.concatenate([t[(t > bonferroni / 2.0) & (t < 0.5)] for t in (null.cdf, null.sf)])
    tails = np.unique(np.concatenate([tails, np.nextafter(tails, 0.0)]))
    deltas = np.concatenate(([bonferroni], 2.0 * tails[2.0 * tails > bonferroni], [1.0]))

    # Bisect for the loosest pointwise level whose exact coverage still meets
    # the target; coverage only falls as delta grows.
    keep, drop = 0, deltas.size
    while drop - keep > 1:
        mid = (keep + drop) // 2
        if null.coverage(*null.count_bounds(deltas[mid])) >= coverage:
            keep = mid
        else:
            drop = mid
    delta = float(deltas[keep])
    count_lo, count_up = null.count_bounds(delta)
    covered = null.coverage(count_lo, count_up)
    return EcdfBand(
        grid=null.grid,
        lower=count_lo / s - null.grid,
        upper=count_up / s - null.grid,
        count_lower=count_lo,
        count_upper=count_up,
        coverage=float(coverage),
        coverage_exact=covered,
        pointwise_level=1.0 - delta,
        s=int(s),
        granularity=granularity,
    )


def ecdf_band(
    s: int, granularity: int | None = None, coverage: float = 0.95
) -> EcdfBand:
    """Simultaneous band for the ECDF of s null values, at exact coverage.

    Null values are Uniform(0, 1), or uniform on {0, 1/M, ..., 1} for
    granularity M. At each of min(s, 100) grid points the band bounds the
    ECDF count by the binomial quantiles at delta/2 and 1 - delta/2,
    widened to contain the null mean count. delta is the largest pointwise
    miss probability whose simultaneous coverage, computed exactly, is at
    least `coverage`; the next looser pointwise level covers less. Results
    are cached per configuration.
    """
    if s < 10:
        raise ValueError("band calibration needs at least 10 values")
    if not 0.5 <= coverage < 1.0:
        raise ValueError("coverage must lie in [0.5, 1)")
    gran = None if granularity is None else int(granularity)
    return _calibrated_band(int(s), gran, float(coverage))


def band_contains(band: EcdfBand, values: np.ndarray) -> tuple[bool, np.ndarray]:
    """Check a value set against the band; returns (inside, ecdf differences)."""
    vals = np.sort(np.asarray(values, dtype=float).reshape(-1))
    if vals.size != band.s:
        raise ValueError(f"band was calibrated for s={band.s}, got {vals.size} values")
    counts = _ecdf_counts(vals, band.grid)
    inside = bool(np.all((counts >= band.count_lower) & (counts <= band.count_upper)))
    return inside, counts / band.s - band.grid


@dataclass(frozen=True)
class UniformityVerdict:
    chi2_stat: float
    chi2_pvalue: float
    ks_stat: float
    ks_pvalue: float
    ecdf_inside: bool
    bins: int
    band: EcdfBand


def rank_histogram(p: PValueSet | np.ndarray, bins: int = 10) -> np.ndarray:
    """Histogram counts over equal-width bins spanning [0, 1]."""
    values = p.values if isinstance(p, PValueSet) else np.asarray(p, dtype=float)
    if bins < 2:
        raise ValueError("bins must be at least 2")
    counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return counts


def _ks_values(p: PValueSet) -> np.ndarray:
    if p.granularity is None:
        return p.values
    # Discrete support: spread each rank atom over its own cell of width
    # 1/(M+1). A discrete-uniform rank set becomes exactly Uniform(0, 1),
    # the jitter half-width is 1/(2(M+1)).
    m = p.granularity
    ranks = np.round(p.values * m)
    rng = substream(_KS_JITTER_SEED, p.size, m)
    return (ranks + rng.random(p.size)) / (m + 1)


def uniformity_test(
    p: PValueSet | np.ndarray,
    bins: int = 10,
    band_coverage: float = 0.95,
) -> UniformityVerdict:
    """Run all three uniformity checks on one p-value set.

    The chi-squared and band checks operate on the raw values; only the KS
    test sees the de-discretized values when granularity is declared.
    """
    if not isinstance(p, PValueSet):
        p = PValueSet(np.asarray(p, dtype=float))
    counts = rank_histogram(p, bins)
    expected = p.size / bins
    chi2_stat = float(((counts - expected) ** 2 / expected).sum())
    chi2_pvalue = float(special.chdtrc(bins - 1, chi2_stat))

    ks = stats.kstest(_ks_values(p), "uniform")

    band = ecdf_band(p.size, granularity=p.granularity, coverage=band_coverage)
    inside, _ = band_contains(band, p.values)

    return UniformityVerdict(
        chi2_stat=chi2_stat,
        chi2_pvalue=chi2_pvalue,
        ks_stat=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        ecdf_inside=inside,
        bins=int(bins),
        band=band,
    )
