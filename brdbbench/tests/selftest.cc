// The benchmark's own tests: percentiles, the supported-percentile rule,
// max_tps_at_slo interpolation, and span self time. Plain checks that stay
// on in every build; exits 1 on the first failure.
//
//   python3 brdbbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestNearestRank() {
  using brdbbench::Sample;
  Sample s(OneTo(100));
  CHECK(Near(s.Percentile(50), 50));
  CHECK(Near(s.Percentile(99), 99));
  CHECK(Near(s.Percentile(100), 100));
  CHECK(Near(s.Percentile(0.1), 1));  // rank never below 1
  Sample ten(OneTo(10));
  CHECK(Near(ten.Percentile(50), 5));
  CHECK(Near(ten.Percentile(51), 6));  // ceil(5.1) = 6
  CHECK(Near(ten.Percentile(99), 10));
  CHECK(Near(Sample().Percentile(50), 0));
  CHECK(Near(Sample({7}).Percentile(99), 7));
}

void TestHighestSupported() {
  using brdbbench::Sample;
  // p99 of 1000 samples has exactly 10 beyond it.
  CHECK(Sample(OneTo(1000)).Beyond(99) == 10);
  CHECK(Near(Sample(OneTo(1000)).HighestSupported(), 99));
  // 999: rank(p99) = 990, only 9 beyond -> p95.
  CHECK(Sample(OneTo(999)).Beyond(99) == 9);
  CHECK(Near(Sample(OneTo(999)).HighestSupported(), 95));
  CHECK(Near(Sample(OneTo(10000)).HighestSupported(), 99.9));
  CHECK(Near(Sample(OneTo(100000)).HighestSupported(), 99.99));
  CHECK(Near(Sample(OneTo(100)).HighestSupported(), 90));
  CHECK(Near(Sample(OneTo(20)).HighestSupported(), 50));
  CHECK(Near(Sample(OneTo(5)).HighestSupported(), 0));
}

void TestSlicedPercentile() {
  using brdbbench::SlicedPercentile;
  // 5 slices of 1000 samples each; slice 2 holds a stall (every value
  // 1000), the others values 1..1000 in order.
  std::vector<double> values;
  std::vector<int64_t> at;
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 1; i <= 1000; ++i) {
      values.push_back(slice == 2 ? 1000 : i);
      at.push_back(slice * 1000 + i - 1);
    }
  }
  size_t k = 0;
  double p99 = SlicedPercentile(values, at, 0, 5000, 99, 1000, 5, &k);
  CHECK(k == 5);
  CHECK(Near(p99, 990));  // the stalled slice is outvoted
  // The whole-sample p99 would be the stall's value.
  CHECK(Near(brdbbench::Sample(values).Percentile(99), 1000));
  // Too few samples for more than one slice: the plain percentile.
  CHECK(Near(SlicedPercentile(values, at, 0, 5000, 99, 5000, 5, &k),
             brdbbench::Sample(values).Percentile(99)));
  CHECK(k == 1);
  // Out-of-range timestamps join the edge slices.
  std::vector<double> v = {1, 2, 3, 4};
  std::vector<int64_t> t = {-50, 10, 60, 500};
  CHECK(Near(SlicedPercentile(v, t, 0, 100, 100, 1, 2, &k), 2));
  CHECK(k == 2);
}

brdbbench::RateStep Step(double rate, size_t attempted, size_t committed,
                         double latency_ms) {
  brdbbench::RateStep s;
  s.offered_tps = rate;
  s.attempted = attempted;
  s.latencies_ms.assign(committed, latency_ms);
  return s;
}

void TestMaxRateAtSlo() {
  using namespace brdbbench;
  Slo slo;  // p99 <= 250 ms, >= 99% committed
  // Score is p99 / limit when everything commits.
  CHECK(Near(StepScore(Step(1000, 1000, 1000, 125), slo), 0.5));
  // Pass at 1000 (score 0.5), fail at 2000 (score 2.0): crossing at 1/3.
  {
    std::vector<RateStep> steps = {Step(2000, 1000, 1000, 500),
                                   Step(1000, 1000, 1000, 125)};
    bool saturated = true;
    double r = MaxRateAtSlo(steps, slo, &saturated);
    CHECK(!saturated);
    CHECK(Near(r, 1000 + 1000.0 * (0.5 / 1.5), 1e-6));
  }
  // The value moves continuously with the failing step's latency.
  {
    double a = MaxRateAtSlo({Step(1000, 1000, 1000, 125),
                             Step(2000, 1000, 1000, 260)},
                            slo);
    double b = MaxRateAtSlo({Step(1000, 1000, 1000, 125),
                             Step(2000, 1000, 1000, 255)},
                            slo);
    CHECK(a < b && b < 2000 && a > 1000);
  }
  // A failed operation is a miss: 2% of operations never committed, so
  // p99 is infinite and the step fails although every latency is tiny.
  {
    RateStep failing = Step(2000, 1000, 980, 1);
    CHECK(std::isinf(StepPercentileMs(failing, 99)));
    CHECK(StepScore(failing, slo) > 1.0);
    double r = MaxRateAtSlo({Step(1000, 1000, 1000, 125), failing}, slo);
    CHECK(r > 1000 && r < 2000);
    CHECK(Near(r, 1000 + 1000.0 * (0.5 / (kMaxScore - 0.5)), 1e-6));
  }
  // Exactly 1% missing: p99 still comes from committed latencies, but the
  // commit ratio sits on its limit.
  {
    RateStep edge = Step(1000, 1000, 990, 100);
    CHECK(Near(StepPercentileMs(edge, 99), 100));
    CHECK(Near(StepScore(edge, slo), 1.0));
  }
  // Every step passes: the highest offered rate, flagged as saturated.
  {
    bool saturated = false;
    double r = MaxRateAtSlo(
        {Step(1000, 100, 100, 10), Step(3000, 100, 100, 20)}, slo,
        &saturated);
    CHECK(saturated);
    CHECK(Near(r, 3000));
  }
  // A timed step is sliced like a window: a stall confined to one of three
  // 1000-operation slices does not fail the step, misses still count.
  {
    RateStep timed = Step(3000, 3000, 3000, 50);
    timed.start_us = 0;
    timed.end_us = 3000;
    for (int i = 0; i < 3000; ++i) {
      timed.latency_at_us.push_back(i);
      if (i < 1000) timed.latencies_ms[i] = 900;  // the stall
    }
    CHECK(Near(StepPercentileMs(timed, 99), 50));
    CHECK(StepScore(timed, slo) <= 1.0);
    RateStep missing = timed;
    missing.latencies_ms.resize(2940);
    missing.latency_at_us.resize(2940);
    for (int i = 2940; i < 3000; ++i) missing.miss_at_us.push_back(i);
    CHECK(StepScore(missing, slo) > 1.0);  // 2% missing
  }
  // The first step already fails: interpolate from (0 tps, score 0).
  {
    double r = MaxRateAtSlo({Step(1000, 1000, 1000, 500)}, slo);
    CHECK(Near(r, 500, 1e-6));
  }
}

void TestSelfTime() {
  using brdbbench::Span;
  auto span = [](int64_t s, int64_t e) {
    Span x;
    x.start_us = s;
    x.end_us = e;
    return x;
  };
  Span parent = span(0, 100);
  CHECK(brdbbench::SelfTimeUs(parent, {}) == 100);
  CHECK(brdbbench::SelfTimeUs(parent, {span(10, 30), span(50, 60)}) == 70);
  // Overlapping children count once.
  CHECK(brdbbench::SelfTimeUs(parent, {span(10, 40), span(30, 50)}) == 60);
  // Children are clipped to the parent.
  CHECK(brdbbench::SelfTimeUs(parent, {span(-20, 10), span(90, 150)}) == 80);
  // Full cover leaves no self time.
  CHECK(brdbbench::SelfTimeUs(parent, {span(0, 60), span(60, 100)}) == 0);

  brdbbench::Tracer tracer;
  uint64_t root = tracer.NewId();
  tracer.Record(1, root, "child", 10, 40);
  tracer.Record(1, root, "child", 50, 55);
  tracer.RecordWithId(root, 1, 0, "root", 0, 100);
  std::vector<double> self = tracer.SelfTimesUs("root");
  CHECK(self.size() == 1 && Near(self[0], 65));
  CHECK(tracer.Spans().size() == 3);
}

}  // namespace

int main() {
  TestNearestRank();
  TestHighestSupported();
  TestSlicedPercentile();
  TestMaxRateAtSlo();
  TestSelfTime();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("brdbbench self-test: all checks passed\n");
  return 0;
}
