// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions (no tracing inside src/). A span has a name, a
// start and end on the steady clock, the span that caused it, and the
// trace (one per transaction or block) it belongs to. Spans stay in memory
// and are written out once, when the run ends.
#ifndef BRDBBENCH_TRACE_H_
#define BRDBBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace brdbbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t trace = 0;   ///< shared by every span of one request
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t duration_us() const { return end_us - start_us; }
};

/// Self time of `parent`: its duration minus the part of its interval
/// covered by the union of `children` (clipped to the parent; overlapping
/// children count once).
int64_t SelfTimeUs(const Span& parent, const std::vector<Span>& children);

class Tracer {
 public:
  /// Record a finished span; returns its id. Thread-safe.
  uint64_t Record(uint64_t trace, uint64_t parent, const std::string& name,
                  int64_t start_us, int64_t end_us);
  /// Reserve an id for a span whose children are recorded before it.
  uint64_t NewId();
  /// Record a span under an id from NewId().
  void RecordWithId(uint64_t id, uint64_t trace, uint64_t parent,
                    const std::string& name, int64_t start_us,
                    int64_t end_us);

  std::vector<Span> Spans() const;
  /// Self time (µs) of every span called `name`.
  std::vector<double> SelfTimesUs(const std::string& name) const;
  /// One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace brdbbench

#endif  // BRDBBENCH_TRACE_H_
