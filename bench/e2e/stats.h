// Order statistics for bench_e2e samples.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <vector>

namespace ilp::bench_e2e {

struct summary {
    std::size_t n = 0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    // The highest percentile with at least ten samples beyond it: the
    // 11th-largest sample, at percentile 100 * (n - 10) / n.  Absent for
    // n <= 10.
    std::optional<double> tail;
    double tail_pct = 0.0;

    // Interquartile range as a share of the median.
    double spread() const { return median == 0.0 ? 0.0 : (q3 - q1) / median; }
};

// Quartiles use the "exclusive" method of Python's
// statistics.quantiles(values, n=4), so figures match scripts that recompute
// them from the raw values.
inline summary summarize(std::vector<double> v) {
    summary s;
    s.n = v.size();
    if (v.empty()) return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n == 1) {
        s.q1 = s.q3 = v[0];
    } else {
        std::array<double, 3> q{};
        const std::size_t m = n + 1;
        for (std::size_t i = 1; i <= 3; ++i) {
            const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
            const double delta = static_cast<double>(i * m) -
                                 static_cast<double>(j * 4);
            q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
        }
        s.q1 = q[0];
        s.q3 = q[2];
    }
    if (n > 10) {
        s.tail = v[n - 11];
        s.tail_pct = 100.0 * static_cast<double>(n - 10) /
                     static_cast<double>(n);
    }
    return s;
}

inline double median_of(std::vector<double> v) {
    return summarize(std::move(v)).median;
}

// Percentile p in [0, 100] by nearest rank.
inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

}  // namespace ilp::bench_e2e
