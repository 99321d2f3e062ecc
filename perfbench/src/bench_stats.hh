/**
 * @file
 * Order statistics the serving benchmark reports: nearest-rank
 * percentiles (with the "at least ten samples beyond it" support rule),
 * medians, and quartiles computed the way Python's
 * `statistics.quantiles(values, n=4)` computes them, so the
 * benchmark's own spread figures agree with the ones a reader computes
 * from its printed runs.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Samples a percentile must leave above it before it is reported. */
constexpr std::size_t kMinSamplesBeyond = 10;

/**
 * 1-based nearest rank of percentile `pct` over `n` samples: the
 * smallest rank r with r >= pct/100 * n (and r >= 1).
 */
inline std::size_t
nearestRank(std::size_t n, double pct)
{
    if (n == 0)
        throw std::invalid_argument("nearestRank: no samples");
    if (!(pct > 0.0 && pct <= 100.0))
        throw std::invalid_argument("nearestRank: pct outside (0, 100]");
    // Scale in integers where possible so 99% of 1000 is exactly 990.
    const double exact = pct * static_cast<double>(n) / 100.0;
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/** Samples strictly above the nearest-rank position. */
inline std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n - nearestRank(n, pct);
}

/** True when `n` samples support reporting percentile `pct`. */
inline bool
percentileSupported(std::size_t n, double pct)
{
    return n > 0 && samplesBeyond(n, pct) >= kMinSamplesBeyond;
}

/** Nearest-rank percentile of `values` (copied and sorted). */
inline double
percentile(std::vector<double> values, double pct)
{
    const std::size_t rank = nearestRank(values.size(), pct);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

/** Median: the middle value, or the mean of the two middle values. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median: no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * Quartiles Q1, Q2, Q3 by the "exclusive" method (Python's default for
 * statistics.quantiles): position i*(n+1)/4, interpolated linearly.
 * Needs at least two samples.
 */
inline std::array<double, 3>
quartiles(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n < 2)
        throw std::invalid_argument("quartiles: need two samples");
    std::sort(values.begin(), values.end());
    const auto ld = static_cast<long long>(n);
    const long long m = ld + 1;
    std::array<double, 3> out{};
    for (long long i = 1; i <= 3; ++i) {
        // Python clamps j to [1, n-1] first, then takes delta from the
        // clamped j (so two samples extrapolate, exactly as it does).
        const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
        const long long delta = i * m - j * 4;
        out[static_cast<std::size_t>(i - 1)] =
            (values[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(4 - delta) +
             values[static_cast<std::size_t>(j)] *
                 static_cast<double>(delta)) /
            4.0;
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
