// Sample statistics and failure accounting for the serving benchmark.
//
// Percentiles are nearest-rank: the p-th percentile of n sorted samples
// is the sample at 1-based rank ceil(p * n / 100). A tail percentile is
// only reported when at least kMinBeyond samples lie strictly above its
// rank, so a p99 always rests on ten or more slower samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `pct` (0 < pct <= 100) among `n`
/// samples; integer math on hundredths so 99.9 is exact.
inline std::size_t nearest_rank(std::size_t n, double pct) {
  const auto hundredths = static_cast<std::uint64_t>(std::llround(pct * 100));
  if (n == 0 || hundredths == 0 || hundredths > 10000) {
    throw std::invalid_argument(
        "nearest_rank needs samples and 0 < pct <= 100");
  }
  const std::uint64_t scaled = hundredths * n;
  return static_cast<std::size_t>((scaled + 9999) / 10000);
}

/// Samples strictly above the nearest rank of `pct`.
inline std::size_t samples_beyond(std::size_t n, double pct) {
  return n - nearest_rank(n, pct);
}

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of `values` (sorted in place). Throws when a
/// tail percentile (pct > 50) has fewer than kMinBeyond samples beyond
/// it: such a figure is one or two outliers, not a percentile.
inline Percentile percentile(std::vector<double>& values, double pct) {
  std::sort(values.begin(), values.end());
  Percentile p;
  p.samples = values.size();
  const std::size_t rank = nearest_rank(values.size(), pct);
  p.beyond = values.size() - rank;
  if (pct > 50.0 && p.beyond < kMinBeyond) {
    throw std::runtime_error("p" + std::to_string(pct) + " of " +
                             std::to_string(values.size()) +
                             " samples has fewer than " +
                             std::to_string(kMinBeyond) + " beyond it");
  }
  p.value = values[rank - 1];
  return p;
}

/// Median of a small set of repetition results (mean of the middle two
/// for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of nothing");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Jobs attempted versus jobs that did not complete with the reference
/// outputs. Every job handed to the system counts once in `attempted`;
/// a job counts in `failed` when its result is missing, duplicated,
/// not kCompleted, or its outputs differ from the reference.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions, for the report.
  std::vector<std::string> examples;

  void ok() { ++attempted; }
  void fail(std::string why) {
    ++attempted;
    ++failed;
    if (examples.size() < 5) examples.push_back(std::move(why));
  }
  void merge(const FailureTally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& e : other.examples) {
      if (examples.size() < 5) examples.push_back(e);
    }
  }
  double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
