#include "stats.h"

#include <algorithm>
#include <cmath>

namespace brdbbench {

Sample::Sample(std::vector<double> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

size_t NearestRank(size_t n, double pct) {
  if (n == 0) return 0;
  // The epsilon keeps products like 99.9% of 10000 = 9990.000000000002
  // from rounding up a whole rank.
  double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  if (rank < 1) rank = 1;
  if (rank > static_cast<double>(n)) rank = static_cast<double>(n);
  return static_cast<size_t>(rank);
}

double SlicedPercentile(const std::vector<double>& values,
                        const std::vector<int64_t>& at_us, int64_t start_us,
                        int64_t end_us, double pct, size_t min_per_slice,
                        size_t max_slices, size_t* slices) {
  size_t k = min_per_slice == 0 ? max_slices : values.size() / min_per_slice;
  k = std::max<size_t>(1, std::min(k, max_slices));
  if (slices != nullptr) *slices = k;
  if (k == 1 || end_us <= start_us || at_us.size() != values.size()) {
    return Sample(values).Percentile(pct);
  }
  std::vector<std::vector<double>> parts(k);
  double len = static_cast<double>(end_us - start_us) / static_cast<double>(k);
  for (size_t i = 0; i < values.size(); ++i) {
    double pos = static_cast<double>(at_us[i] - start_us) / len;
    size_t slot = pos <= 0 ? 0 : std::min(k - 1, static_cast<size_t>(pos));
    parts[slot].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (auto& part : parts) {
    if (!part.empty()) {
      per_slice.push_back(Sample(std::move(part)).Percentile(pct));
    }
  }
  return Sample(std::move(per_slice)).Median();
}

double Sample::Percentile(double pct) const {
  if (sorted_.empty()) return 0;
  return sorted_[NearestRank(sorted_.size(), pct) - 1];
}

size_t Sample::Beyond(double pct) const {
  return sorted_.size() - NearestRank(sorted_.size(), pct);
}

double Sample::HighestSupported(size_t min_beyond) const {
  static const double kLadder[] = {99.99, 99.9, 99, 95, 90, 50};
  for (double pct : kLadder) {
    if (!sorted_.empty() && Beyond(pct) >= min_beyond) return pct;
  }
  return 0;
}

double StepPercentileMs(const RateStep& step, double pct) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t n = std::max(step.attempted, step.latencies_ms.size());
  if (n == 0) return kInf;
  std::vector<double> values = step.latencies_ms;
  values.resize(n, kInf);  // misses rank above every latency
  bool timed = step.end_us > step.start_us &&
               step.latency_at_us.size() == step.latencies_ms.size() &&
               step.latency_at_us.size() + step.miss_at_us.size() == n;
  if (!timed) return Sample(std::move(values)).Percentile(pct);
  std::vector<int64_t> at = step.latency_at_us;
  at.insert(at.end(), step.miss_at_us.begin(), step.miss_at_us.end());
  return SlicedPercentile(values, at, step.start_us, step.end_us, pct, 1000, 5);
}

double StepScore(const RateStep& step, const Slo& slo) {
  double p = StepPercentileMs(step, slo.pct);
  double latency_score = p / slo.limit_ms;
  double ratio = step.attempted == 0
                     ? 0
                     : static_cast<double>(step.latencies_ms.size()) /
                           static_cast<double>(step.attempted);
  // 0 when everything committed, 1 at the minimum ratio.
  double ratio_score = (1.0 - ratio) / (1.0 - slo.min_commit_ratio);
  double score = std::max(latency_score, ratio_score);
  if (!(score <= kMaxScore)) score = kMaxScore;  // also catches inf
  return score;
}

double MaxRateAtSlo(std::vector<RateStep> steps, const Slo& slo,
                    bool* saturated) {
  if (saturated != nullptr) *saturated = false;
  std::stable_sort(steps.begin(), steps.end(),
                   [](const RateStep& a, const RateStep& b) {
                     return a.offered_tps < b.offered_tps;
                   });
  double pass_rate = 0;
  double pass_score = 0;
  for (const RateStep& step : steps) {
    double score = StepScore(step, slo);
    if (score > 1.0) {
      double frac = (1.0 - pass_score) / (score - pass_score);
      return pass_rate + (step.offered_tps - pass_rate) * frac;
    }
    pass_rate = step.offered_tps;
    pass_score = score;
  }
  if (saturated != nullptr) *saturated = true;
  return pass_rate;
}

}  // namespace brdbbench
