#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace brdbbench {

int64_t SelfTimeUs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& c : children) {
    int64_t lo = std::max(c.start_us, parent.start_us);
    int64_t hi = std::min(c.end_us, parent.end_us);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_us = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) union_us += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) union_us += cur_hi - cur_lo;
  return std::max<int64_t>(0, parent.duration_us()) - union_us;
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Record(uint64_t trace, uint64_t parent,
                        const std::string& name, int64_t start_us,
                        int64_t end_us) {
  uint64_t id = NewId();
  RecordWithId(id, trace, parent, name, start_us, end_us);
  return id;
}

void Tracer::RecordWithId(uint64_t id, uint64_t trace, uint64_t parent,
                          const std::string& name, int64_t start_us,
                          int64_t end_us) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::vector<Span> spans = Spans();
  std::map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    auto it = children.find(s.id);
    out.push_back(static_cast<double>(
        SelfTimeUs(s, it == children.end() ? std::vector<Span>{}
                                           : it->second)));
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.name.c_str(),
                 static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us));
  }
  return std::fclose(f) == 0;
}

}  // namespace brdbbench
