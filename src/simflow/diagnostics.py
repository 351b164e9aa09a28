"""Uniformity diagnostics for p-value sets.

Three checks are reported side by side: a chi-squared test over equal-width
bins, a Kolmogorov-Smirnov test, and containment of the ECDF difference
trajectory in a simultaneous confidence band. None of them is designated
the single arbiter; callers decide how to combine them.

The KS p-value is the exact law of the two-sided statistic, computed here in
numpy rather than through scipy.stats, whose import would dominate the
start-up of every command.

The band's coverage is exact, not simulated: it comes from a forward
recursion over the binomial increments of the ECDF counts between grid
points, so building a band draws no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    def __init__(self, s: int, granularity: int | None, tail_min: float):
        self.s = s
        self.grid = _grid_for(s)
        from scipy import special

        probs = _null_cdf_at_grid(s, granularity)
        k = np.arange(s + 1)
        logf = special.gammaln(k + 1.0)
        p = probs[:, None]
        pmf = np.exp(logf[s] - logf[k] - logf[s - k]
                     + special.xlogy(k, p) + special.xlog1py(s - k, -p))
        self.cdf = np.cumsum(pmf, axis=1)                     # P(C_j <= k)
        self.sf = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]   # P(C_j > k), k < s
        del pmf

        # count_bounds is asked only for tail levels x in [tail_min, 0.5]. The
        # rows of cdf rise and those of sf fall, so every entry outside the
        # slice between tail_min and 0.5 is counted at every such x, or at
        # none: keep the slices, padded to one width, and the counts before.
        self.lo_base = np.count_nonzero(self.cdf < tail_min, axis=1)
        self.lo_tail = _row_slices(self.cdf, self.lo_base,
                                   np.count_nonzero(self.cdf < 0.5, axis=1), 1.0)
        self.up_base = np.count_nonzero(self.sf > 0.5, axis=1)
        self.up_tail = _row_slices(self.sf, self.up_base,
                                   np.count_nonzero(self.sf > tail_min, axis=1), 0.0)

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
        """Pointwise binomial quantiles at delta/2 and 1 - delta/2 per grid point.

        delta/2 must lie in [tail_min, 0.5].
        """
        x = delta / 2.0
        lo = self.lo_base + np.count_nonzero(self.lo_tail < x, axis=1)
        up = self.up_base + np.count_nonzero(self.up_tail > x, axis=1)
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


def _row_slices(table: np.ndarray, start: np.ndarray, stop: np.ndarray,
                pad: float) -> np.ndarray:
    """table[j, start[j]:stop[j]] for each row j, right-padded with pad."""
    cols = start[:, None] + np.arange((stop - start).max(initial=0))
    rows = np.take_along_axis(table, np.minimum(cols, table.shape[1] - 1), axis=1)
    return np.where(cols < stop[:, None], rows, pad)


def _log_miss(covered: float) -> float:
    return math.log(1.0 - covered) if covered < 1.0 else -math.inf


@lru_cache(maxsize=64)
def _calibrated_band(s: int, granularity: int | None, coverage: float) -> EcdfBand:
    # Bonferroni: at this pointwise miss probability the band covers at least
    # `coverage`, whatever the dependence between grid points.
    bonferroni = (1.0 - coverage) / _grid_for(s).size
    null = _NullCounts(s, granularity, bonferroni / 2.0)
    # A count bound moves only where delta/2 crosses a binomial tail
    # probability. Each such probability and the float just below it give
    # every distinct band, each at the loosest delta that yields it.
    tails = np.concatenate([t[(t > bonferroni / 2.0) & (t < 0.5)]
                            for t in (null.lo_tail, null.up_tail)])
    tails = np.unique(np.concatenate([tails, np.nextafter(tails, 0.0)]))
    deltas = np.concatenate(([bonferroni], 2.0 * tails[2.0 * tails > bonferroni], [1.0]))
    log_deltas = np.log(deltas)

    def band_at(i: int):
        bounds = null.count_bounds(deltas[i])
        return bounds, null.coverage(*bounds)

    # Coverage only falls as delta grows; the band is the one at the last
    # candidate whose exact coverage meets the target. keep meets it (index 0,
    # Bonferroni, by the bound) and drop does not (deltas.size stands for a
    # miss probability of 1 at delta = 1). log(1 - coverage) is close to
    # linear in log delta, so each step tries the first candidate at or past
    # where the secant through the bracket ends meets the target, clamped
    # strictly inside the bracket. Where log(1 - coverage) bends, the secant
    # lands on the same side step after step; an end that stays put for a
    # second step in a row has its miss (log miss minus target) halved, the
    # Illinois variant of regula falsi, so the next step lands nearer it.
    target = math.log1p(-coverage)
    kept = band_at(0)
    keep, keep_xy = 0, [log_deltas[0], _log_miss(kept[1]) - target]
    drop, drop_xy = deltas.size, [0.0, -target]
    stayed = None
    while drop - keep > 1:
        mid = (keep + drop) // 2
        (xk, yk), (xd, yd) = keep_xy, drop_xy
        if -math.inf < yk < yd:
            x = xk - yk * (xd - xk) / (yd - yk)
            mid = min(max(int(np.searchsorted(log_deltas, x)), keep + 1), drop - 1)
        band = band_at(mid)
        xy = [log_deltas[mid], _log_miss(band[1]) - target]
        if band[1] >= coverage:
            keep, keep_xy, kept, stale = mid, xy, band, drop_xy
        else:
            drop, drop_xy, stale = mid, xy, keep_xy
        if stale is stayed:
            stale[1] /= 2.0
        stayed = stale
    delta = float(deltas[keep])
    (count_lo, count_up), covered = kept
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


# The exact law of the two-sided KS statistic D_n, as chosen per (n, d) by
# Simard & L'Ecuyer (2011, J. Stat. Softw. 39(11)): Ruben-Gambino closed forms
# at the ends, 2 * smirnov where the one-sided tails cannot both be crossed,
# the Durbin matrix (Marsaglia, Tsang & Wang 2003) or the Pomeranz (1974)
# recursion for n <= 140, and the Pelz-Good (1976) series beyond. The
# arithmetic is scipy.stats.kstwo.sf's (scipy 1.17), operation for operation,
# so p-values equal scipy.stats.kstest's bit for bit.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6
# B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1, B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _log_nfactorial_div_n_pow_n(n: int):
    # log(n! / n**n) by Stirling's series with n log n removed up front, so
    # nothing cancels
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _ks_cdf_durbin(n: int, d):
    """P(D_n <= d) from the k-th row of (n!/n^n) H^n, for d = (k - h)/n."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    # v: first column and, reversed, last row of H; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    # H^n by repeated squaring, rescaled by 2^128 whenever it grows past it
    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0
    Hexpnt = 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pomeranz_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple[int, int]:
    """Endpoints of the nonzero entries of row i of the Pomeranz recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _ks_cdf_pomeranz(n: int, d):
    """P(D_n <= d) as n! times the last entry of 2n + 1 Poisson convolutions.

    Only two rows, and of each only the entries j1..j2, are ever nonzero;
    rows are rescaled by 2^128 before they underflow.
    """
    t = n * d
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    # (g/n)^m/m!, (2g/n)^m/m! and ((1-2g)/n)^m/m!: Poisson terms, unnormalized
    gpower = np.empty(npwrs)
    twogpower = np.empty(npwrs)
    onem2gpower = np.empty(npwrs)
    gpower[0] = twogpower[0] = onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # column of each row's first stored entry
    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return ans


def _ks_cdf_pelz_good(n: int, d):
    """Pelz-Good series for P(D_n <= d), accurate for small d sqrt(n).

    It recasts each term of the Li-Chien/Korolyuk expansion
    K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5, z = d sqrt(n), through
    Jacobi theta functions.
    """
    z = np.sqrt(n) * d
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme over the odd integers for sum c_i q^(i^2)
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k in K2 and K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)


def _ks_sf(n: int, d) -> float:
    """P(D_n >= d) for the two-sided KS statistic of n Uniform(0, 1) values."""
    from scipy import special

    d = np.float64(d)
    if d <= 0.5 / n:  # at or below the lower end of the support
        return 1.0
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 1.0:  # Ruben-Gambino: 1/(2n) < d <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            cdf = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        sf = 1.0 - cdf
    elif t >= n - 1:  # Ruben-Gambino
        sf = 2 * (1.0 - d) ** n
    elif d >= 0.5:  # D+ and D- cannot both reach d
        sf = 2 * special.smirnov(n, d)
    else:
        nd2 = t * d
        if n <= 140:
            if nd2 <= 0.754693:
                sf = 1.0 - _ks_cdf_durbin(n, d)
            elif nd2 <= 4:
                sf = 1.0 - _ks_cdf_pomeranz(n, d)
            else:  # Miller's approximation
                sf = 2 * special.smirnov(n, d)
        elif nd2 >= 370.0:
            sf = 0.0
        elif nd2 >= 2.2:
            sf = 2 * special.smirnov(n, d)
        elif n <= 100000 and n * d**1.5 <= 1.4:
            sf = 1.0 - _ks_cdf_durbin(n, d)
        else:
            sf = 1.0 - _ks_cdf_pelz_good(n, d)
    return min(max(float(sf), 0.0), 1.0)


def _ks_uniform(values: np.ndarray) -> tuple[float, float]:
    """Two-sided one-sample KS test against Uniform(0, 1): (D, exact p-value)."""
    cdf = np.clip(np.sort(values), 0.0, 1.0)
    n = cdf.size
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), _ks_sf(n, d)


def uniformity_test(
    p: PValueSet | np.ndarray,
    bins: int = 10,
    band_coverage: float = 0.95,
) -> UniformityVerdict:
    """Run all three uniformity checks on one p-value set.

    The chi-squared and band checks operate on the raw values; only the KS
    test sees the de-discretized values when granularity is declared.
    """
    from scipy import special

    if not isinstance(p, PValueSet):
        p = PValueSet(np.asarray(p, dtype=float))
    counts = rank_histogram(p, bins)
    expected = p.size / bins
    chi2_stat = float(((counts - expected) ** 2 / expected).sum())
    chi2_pvalue = float(special.chdtrc(bins - 1, chi2_stat))

    ks_stat, ks_pvalue = _ks_uniform(_ks_values(p))

    band = ecdf_band(p.size, granularity=p.granularity, coverage=band_coverage)
    inside, _ = band_contains(band, p.values)

    return UniformityVerdict(
        chi2_stat=chi2_stat,
        chi2_pvalue=chi2_pvalue,
        ks_stat=ks_stat,
        ks_pvalue=ks_pvalue,
        ecdf_inside=inside,
        bins=int(bins),
        band=band,
    )
