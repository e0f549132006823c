// Sample statistics for the benchmark: nearest-rank percentiles, the
// highest percentile a sample supports, and the max-rate-at-SLO search.
//
// Pure functions over plain vectors, so tests/selftest.cc checks them
// without a network.
#ifndef BRDBBENCH_STATS_H_
#define BRDBBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace brdbbench {

/// A sample that is sorted once and then queried.
class Sample {
 public:
  Sample() = default;
  explicit Sample(std::vector<double> values);

  size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }
  /// Nearest-rank percentile: the smallest value with at least pct% of
  /// the sample at or below it. `pct` in (0, 100]. 0 for an empty sample.
  double Percentile(double pct) const;
  double Median() const { return Percentile(50); }
  /// Number of samples ranked strictly above Percentile(pct).
  size_t Beyond(double pct) const;
  /// The highest percentile of {50, 90, 95, 99, 99.9, 99.99} with at least
  /// `min_beyond` samples beyond it; 0 when not even the median has.
  double HighestSupported(size_t min_beyond = 10) const;

 private:
  std::vector<double> sorted_;
};

/// Nearest rank (1-based) of `pct` in a sample of `n`.
size_t NearestRank(size_t n, double pct);

/// A steadier percentile of a time series: split [start_us, end_us) into k
/// equal time slices, take the nearest-rank `pct` of each slice's values,
/// and return the median of those (the lower one for even k). k is
/// n / min_per_slice clamped to [1, max_slices], so every slice averages at
/// least `min_per_slice` samples; a stall confined to one slice then moves
/// the result by at most one rank. Samples outside the range join the
/// nearest slice; empty slices are skipped. `*slices` (optional) gets k.
double SlicedPercentile(const std::vector<double>& values,
                        const std::vector<int64_t>& at_us, int64_t start_us,
                        int64_t end_us, double pct, size_t min_per_slice,
                        size_t max_slices, size_t* slices = nullptr);

/// One fixed-rate step of a rate search.
struct RateStep {
  double offered_tps = 0;
  size_t attempted = 0;
  /// Latencies (ms) of the operations that committed. Every attempted
  /// operation without a latency here — failed, aborted, undecided — is a
  /// miss and ranks above any latency.
  std::vector<double> latencies_ms;
  /// Optional, for slicing the step in time: the scheduled instant of each
  /// latency, of each miss, and the step's span.
  std::vector<int64_t> latency_at_us;
  std::vector<int64_t> miss_at_us;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

struct Slo {
  double pct = 99;            ///< percentile the limit applies to
  double limit_ms = 250;      ///< latency limit at that percentile
  double min_commit_ratio = 0.99;  ///< committed / attempted
};

/// Percentile of a step's latencies with misses counted as +infinity.
/// With timestamps it is a SlicedPercentile (slices of >= 1000 operations,
/// at most 5), like the commit percentiles of a window.
double StepPercentileMs(const RateStep& step, double pct);

/// How far a step is from its SLO: the larger of p/limit and
/// (1 - ratio) / (1 - min_ratio), capped at kMaxScore. A step passes when
/// its score is <= 1.
double StepScore(const RateStep& step, const Slo& slo);
inline constexpr double kMaxScore = 4.0;

/// The highest offered rate meeting `slo`. Steps are taken in order of
/// offered rate; the result interpolates linearly in score between the
/// last passing step and the first failing one, so it moves continuously
/// with the measurements instead of snapping to the step grid. A first
/// step that fails interpolates from (0 tps, score 0). When every step
/// passes, the highest offered rate is returned and `*saturated` is set.
double MaxRateAtSlo(std::vector<RateStep> steps, const Slo& slo,
                    bool* saturated = nullptr);

}  // namespace brdbbench

#endif  // BRDBBENCH_STATS_H_
