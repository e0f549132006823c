#include "harness.h"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/thread_pool.h"
#include "crypto/sig_verifier.h"
#include "ledger/block_store.h"

namespace brdbbench {

namespace fs = std::filesystem;

double ThreadCpuSeconds(std::thread& thread) {
  clockid_t clock;
  timespec ts{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

/// Cumulative CPU ticks of the whole host from /proc/stat: total and
/// stolen by the hypervisor.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

/// One block of node 0's chain replayed through each layer alone.
struct ReplayTimes {
  brdb::BlockNum number = 0;
  size_t txns = 0;
  double encode_us = 0;
  double decode_us = 0;
  double verify_us = 0;  ///< SignatureVerifier, cold cache, whole block
  double append_us = 0;  ///< BlockStore::Append with fsync
  size_t encoded_bytes = 0;
};

struct ReplayResult {
  std::vector<ReplayTimes> blocks;
  std::vector<double> sign_us;  ///< Schnorr signing of the run's payloads
  Status status;
};

}  // namespace

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static void SleepUntilUs(int64_t target_us) {
  int64_t now = NowUs();
  if (target_us > now) {
    std::this_thread::sleep_for(std::chrono::microseconds(target_us - now));
  }
}

/// Process user+system CPU seconds.
static double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t len = std::char_traits<char>::length(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

static HostTicks ReadHostTicks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share (%) of host CPU time stolen between two readings.
static double StealPct(const HostTicks& from, const HostTicks& to) {
  uint64_t total = to.total - from.total;
  return total == 0 ? 0
                    : 100.0 * static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }
double RssMb() { return StatusFieldMb("VmRSS:"); }

/// Total bytes of the regular files under `dir` (recursive).
static uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double Median(std::vector<double> values) {
  return Sample(std::move(values)).Median();
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples,
                    const std::string& note) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{value, unit, samples, note};
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Info(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  Info(key, buf);
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ops_ += failed;
}

int Report::Print() const {
  for (const auto& [k, v] : info_) {
    std::printf("# %s: %s\n", k.c_str(), v.c_str());
  }
  std::vector<std::string> problems = failures_;
  if (attempted_ == 0) problems.push_back("no operation was attempted");
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "CORRECTNESS GATE FAILED: %s\n", p.c_str());
    }
    std::fflush(stdout);
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_ops_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < order_.size(); ++i) {
    const Entry& e = metrics_.at(order_[i]);
    std::printf("%-36s %14.4f %-8s", order_[i].c_str(), e.value,
                e.unit.c_str());
    if (e.samples > 0) std::printf("  n=%zu", e.samples);
    if (!e.note.empty()) std::printf("  (%s)", e.note.c_str());
    std::printf("\n");
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(order_[i]) +
            "\": {\"value\": " +
            (std::isfinite(e.value) ? FormatNumber(e.value) : "null") +
            ", \"unit\": \"" + JsonEscape(e.unit) + "\"}";
  }
  std::printf("failed_pct = %.4f %% (%" PRIu64 " of %" PRIu64
              " attempted operations)\n",
              100.0 * static_cast<double>(failed_ops_) /
                  static_cast<double>(attempted_),
              failed_ops_, attempted_);
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

void AddProvenance(const Options& opts, Report* report) {
  report->Info("workload", opts.workload);
  report->Info("seed", std::to_string(opts.seed));
  report->Info("measured_seconds", opts.seconds);
  report->Info("mode", opts.trace ? "traced" : "untraced");
  report->Info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Info("cpu_model", CpuModel());
#ifdef BRDBBENCH_BUILD_TYPE
  report->Info("build_type", BRDBBENCH_BUILD_TYPE);
#endif
  report->Info("compiler", std::string("g++/clang ") + __VERSION__);
  report->Info("source_rev", opts.source_rev.empty() ? "unknown"
                                                     : opts.source_rev);
  report->Info("fsync_policy",
               "FsyncPolicy::kAlways (fsync on every block append)");
}

// ---------------------------------------------------------------------------
// DecisionTracker
// ---------------------------------------------------------------------------

DecisionTracker::DecisionTracker(brdb::Transport* transport, size_t num_nodes,
                                 std::string node0_name)
    : transport_(transport),
      majority_(num_nodes / 2 + 1),
      node0_(std::move(node0_name)) {
  sub_ = transport_->Subscribe(
      [this](const std::string& peer, const brdb::TxnNotification& n) {
        OnEvent(peer, n);
      });
}

DecisionTracker::~DecisionTracker() { transport_->Unsubscribe(sub_); }

void DecisionTracker::OnEvent(const std::string& peer,
                              const brdb::TxnNotification& n) {
  Event e{peer, n.status.ok(), n.block, NowUs()};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(n.txid);
  if (it == states_.end()) {
    early_[n.txid].push_back(std::move(e));
    return;
  }
  ApplyLocked(&it->second, e);
}

void DecisionTracker::ApplyLocked(State* st, const Event& e) {
  TxnRecord& rec = records_[st->index];
  if (e.peer == node0_ && rec.node0_us == 0) rec.node0_us = e.at_us;
  if (rec.majority_us != 0) return;
  size_t& votes = e.ok ? st->commits : st->aborts;
  if (++votes < majority_) return;
  rec.majority_us = e.at_us;
  rec.committed = e.ok;
  rec.block = e.block;
  --undecided_;
  cv_.notify_all();
}

void DecisionTracker::Add(TxnRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!rec.submit_ok) {
    records_.push_back(std::move(rec));
    return;
  }
  std::string txid = rec.txid;
  State st;
  st.index = records_.size();
  records_.push_back(std::move(rec));
  ++undecided_;
  State& slot = states_[txid] = st;
  auto early = early_.find(txid);
  if (early != early_.end()) {
    for (const Event& e : early->second) ApplyLocked(&slot, e);
    early_.erase(early);
  }
}

bool DecisionTracker::WaitDecided(int64_t deadline_us) {
  std::unique_lock<std::mutex> lock(mu_);
  while (undecided_ > 0) {
    int64_t left = deadline_us - NowUs();
    if (left <= 0) return false;
    cv_.wait_for(lock, std::chrono::microseconds(left));
  }
  return true;
}

std::vector<TxnRecord> DecisionTracker::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

void RunOpenLoop(brdb::Session* session, DecisionTracker* tracker,
                 double rate, int64_t start_us, size_t count, int phase,
                 const std::function<Call(size_t)>& make_call) {
  double gap_us = 1e6 / rate;
  for (size_t i = 0; i < count; ++i) {
    Call call = make_call(i);
    TxnRecord rec;
    rec.kind = call.kind;
    rec.phase = phase;
    rec.scheduled_us =
        start_us + static_cast<int64_t>(static_cast<double>(i) * gap_us);
    SleepUntilUs(rec.scheduled_us);
    rec.sent_us = NowUs();
    int64_t sent_ns = NowNs();
    brdb::TxnHandle h =
        session->Submit(call.contract, std::move(call.args));
    rec.submit_ns = NowNs() - sent_ns;
    rec.returned_us = NowUs();
    rec.submit_ok = h.valid() && h.submit_status().ok();
    if (h.valid()) rec.txid = h.txid();
    tracker->Add(std::move(rec));
  }
}

/// Stats of the records of `phase`; landed and commit_tps count every
/// majority commit (any phase) in [window_start_us, window_end_us).
static WindowStats Summarize(const std::vector<TxnRecord>& records,
                             int phase, int64_t window_start_us,
                             int64_t window_end_us) {
  WindowStats w;
  std::vector<int64_t> landed_us;
  for (const TxnRecord& r : records) {
    if (r.committed && r.majority_us >= window_start_us &&
        r.majority_us < window_end_us) {
      landed_us.push_back(r.majority_us);
    }
    if (r.phase != phase) continue;
    ++w.attempted;
    w.lag_ms.push_back(static_cast<double>(r.sent_us - r.scheduled_us) /
                       1000.0);
    if (r.committed) {
      ++w.committed;
      w.latencies_ms.push_back(
          static_cast<double>(r.majority_us - r.scheduled_us) / 1000.0);
      w.scheduled_us.push_back(r.scheduled_us);
    } else {
      ++w.failed;
      w.miss_scheduled_us.push_back(r.scheduled_us);
    }
  }
  w.start_us = window_start_us;
  w.end_us = window_end_us;
  // Commits land a block at a time, so their count over the fixed window
  // is nearly always the same multiple of the block size. The rate from
  // the first commit instant to the last is measured: the commits after
  // the first instant over that span.
  w.landed = landed_us.size();
  if (!landed_us.empty()) {
    auto [first, last] =
        std::minmax_element(landed_us.begin(), landed_us.end());
    size_t after_first = static_cast<size_t>(std::count_if(
        landed_us.begin(), landed_us.end(),
        [first = *first](int64_t t) { return t > first; }));
    if (*last > *first) {
      w.commit_tps = static_cast<double>(after_first) * 1e6 /
                     static_cast<double>(*last - *first);
    }
  }
  return w;
}

RateStep WindowStats::AsStep(double offered_tps) const {
  RateStep s;
  s.offered_tps = offered_tps;
  s.attempted = attempted;
  s.latencies_ms = latencies_ms;
  s.latency_at_us = scheduled_us;
  s.miss_at_us = miss_scheduled_us;
  s.start_us = start_us;
  s.end_us = end_us;
  return s;
}

void ReportCommitMetrics(const WindowStats& w, Report* report) {
  Sample lat(w.latencies_ms);
  size_t k50 = 0, k99 = 0;
  double p50 = SlicedPercentile(w.latencies_ms, w.scheduled_us, w.start_us,
                                w.end_us, 50, kMinSliceForP50, kMaxSlices,
                                &k50);
  double p99 = SlicedPercentile(w.latencies_ms, w.scheduled_us, w.start_us,
                                w.end_us, 99, kMinSliceForP99, kMaxSlices,
                                &k99);
  char note[160];
  std::snprintf(note, sizeof(note),
                "median of %zu slices; whole window p99 %.3f, highest "
                "supported p%g, %zu beyond p99",
                k99, lat.Percentile(99), lat.HighestSupported(),
                lat.Beyond(99));
  report->Metric("commit_p50_ms", p50, "ms", lat.size(),
                 "median of " + std::to_string(k50) + " slices");
  report->Metric("commit_p99_ms", p99, "ms", lat.size(), note);
  report->Metric("commit_tps", w.commit_tps, "1/s", w.committed);
  Sample lag(w.lag_ms);
  report->Info("loadgen.lag_p50_ms", lag.Median());
  report->Info("loadgen.lag_p99_ms", lag.Percentile(99));
  report->Info("loadgen.lag_samples", static_cast<double>(lag.size()));
}

WindowRun RunWindow(brdb::Session* session, DecisionTracker* tracker,
                    int phase, double rate, double seconds,
                    const std::function<Call(size_t)>& make_call,
                    const std::function<void()>& at_end,
                    const std::function<double()>& beside_cpu_s) {
  WindowRun run;
  run.phase = phase;
  size_t count = static_cast<size_t>(rate * seconds);
  run.start_us = NowUs() + 1000;
  run.end_us = run.start_us + static_cast<int64_t>(seconds * 1e6);
  HostTicks host0 = ReadHostTicks();
  std::vector<double> cpu_at(kCpuSlices + 1);
  std::thread cpu_sampler([&] {
    for (int k = 0; k <= kCpuSlices; ++k) {
      SleepUntilUs(run.start_us +
                   (run.end_us - run.start_us) * k / kCpuSlices);
      cpu_at[k] = CpuSeconds() - (beside_cpu_s ? beside_cpu_s() : 0);
    }
  });
  RunOpenLoop(session, tracker, rate, run.start_us, count, phase, make_call);
  cpu_sampler.join();
  run.steal_pct = StealPct(host0, ReadHostTicks());
  std::vector<double> rates;
  double slice_s = static_cast<double>(run.end_us - run.start_us) / 1e6 /
                   kCpuSlices;
  for (int k = 0; k < kCpuSlices; ++k) {
    rates.push_back((cpu_at[k + 1] - cpu_at[k]) / slice_s);
  }
  run.cpu_rate = Median(rates);
  if (at_end) at_end();
  tracker->WaitDecided(NowUs() + kDrainUs);
  run.records = tracker->Records();
  run.stats = Summarize(run.records, phase, run.start_us, run.end_us);
  return run;
}

void RunRateSearch(brdb::Session* session, DecisionTracker* tracker,
                   int* phase, const RateStep& first,
                   const std::vector<double>& rates, double step_seconds,
                   const std::function<Call(size_t)>& make_call,
                   Report* report) {
  // A step that has not drained this long after its last send has a
  // backlog; its stragglers count as misses.
  constexpr int64_t kStepDrainUs = 3'000'000;
  Slo slo;
  std::vector<RateStep> steps = {first};
  std::string line;
  for (double rate : rates) {
    ++*phase;
    int64_t start = NowUs() + 1000;
    RunOpenLoop(session, tracker, rate, start,
                static_cast<size_t>(rate * step_seconds), *phase, make_call);
    tracker->WaitDecided(NowUs() + kStepDrainUs);
    steps.push_back(
        Summarize(tracker->Records(), *phase, start,
                  start + static_cast<int64_t>(step_seconds * 1e6))
            .AsStep(rate));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.0f:p99=%.1f", line.empty() ? "" : " ",
                  rate, StepPercentileMs(steps.back(), slo.pct));
    line += buf;
    if (StepScore(steps.back(), slo) > 1.0) break;
  }
  report->Info("rate_search", line);
  bool saturated = false;
  double max_tps = MaxRateAtSlo(steps, slo, &saturated);
  report->Metric("max_tps_at_slo", max_tps, "1/s", steps.size(),
                 saturated ? "every step met the SLO: a lower bound"
                           : "p99 <= 250 ms, >= 99% committed");
}

double WindowRun::CpuMsPerTxn() const {
  return stats.commit_tps > 0 ? 1000.0 * cpu_rate / stats.commit_tps : 0;
}

void ReportTracingOverhead(const WindowRun& untraced, const WindowRun& traced,
                           Report* report) {
  Sample u(untraced.stats.latencies_ms), t(traced.stats.latencies_ms);
  report->Info("trace_overhead.commit_p50_ms", t.Median() - u.Median());
  report->Info("trace_overhead.commit_p99_ms",
               t.Percentile(99) - u.Percentile(99));
  report->Info("trace_overhead.commit_tps",
               traced.stats.commit_tps - untraced.stats.commit_tps);
  report->Info("trace_overhead.cpu_ms_per_txn",
               traced.CpuMsPerTxn() - untraced.CpuMsPerTxn());
}

// ---------------------------------------------------------------------------
// BlockPoller
// ---------------------------------------------------------------------------

BlockPoller::BlockPoller(brdb::OrderingService* ordering,
                         brdb::DatabaseNode* node0)
    : ordering_(ordering), node0_(node0) {}

BlockPoller::~BlockPoller() { Stop(); }

void BlockPoller::Start() {
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void BlockPoller::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

int64_t BlockPoller::VisibleUs(const std::string& txid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = visible_.find(txid);
  return it == visible_.end() ? 0 : it->second;
}

std::vector<BlockObservation> BlockPoller::Blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlockObservation> out;
  for (const auto& [n, b] : blocks_) out.push_back(b);
  return out;
}

void BlockPoller::Loop() {
  brdb::BlockNum seen = ordering_->Height();
  brdb::BlockNum committed = node0_->Height();
  // Cumulative timer sums (ms) at the last observed node-0 height.
  struct Sums {
    double verify = 0, prepare = 0, bet = 0, bpt = 0;
  };
  auto read_sums = [this] {
    brdb::MetricsSnapshot m = node0_->metrics()->Snapshot();
    double blocks = static_cast<double>(m.blocks_processed);
    return Sums{m.stage_verify_ms * blocks, m.stage_prepare_ms * blocks,
                m.bet_ms * blocks, m.bpt_ms * blocks};
  };
  Sums last = read_sums();
  while (!stop_) {
    brdb::BlockNum h = ordering_->Height();
    for (brdb::BlockNum n = seen + 1; n <= h; ++n) {
      auto blk = ordering_->GetBlock(n);
      int64_t now = NowUs();
      std::lock_guard<std::mutex> lock(mu_);
      BlockObservation& obs = blocks_[n];
      obs.number = n;
      if (blk.ok()) {
        obs.txns = blk.value().transactions().size();
        for (const auto& tx : blk.value().transactions()) {
          visible_.emplace(tx.id(), now);
        }
      }
    }
    seen = std::max(seen, h);
    brdb::BlockNum c = node0_->Height();
    if (c > committed) {
      Sums cur = read_sums();
      double k = static_cast<double>(c - committed);
      double verify = (cur.verify - last.verify) / k;
      double prepare = (cur.prepare - last.prepare) / k;
      double bet = (cur.bet - last.bet) / k;
      double bpt = (cur.bpt - last.bpt) / k;
      std::lock_guard<std::mutex> lock(mu_);
      for (brdb::BlockNum n = committed + 1; n <= c; ++n) {
        BlockObservation& obs = blocks_[n];
        obs.number = n;
        obs.verify_ms = verify;
        obs.prepare_ms = prepare;
        obs.exec_wait_ms = bet - verify - prepare;
        obs.commit_ms = bpt - bet;
        obs.exact = c - committed == 1;
      }
      committed = c;
      last = cur;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Records the per-transaction span tree (txn -> loadgen.lag, core.submit,
/// consensus.order, core.block_to_decision) of the window's records.
static void RecordTxnSpans(const WindowRun& window, const BlockPoller& poller,
                           Tracer* tracer) {
  uint64_t trace = 0;
  for (const TxnRecord& r : window.records) {
    if (r.phase != window.phase || !r.committed) continue;
    ++trace;
    uint64_t root = tracer->NewId();
    tracer->Record(trace, root, "loadgen.lag", r.scheduled_us, r.sent_us);
    tracer->Record(trace, root, "core.submit", r.sent_us, r.returned_us);
    int64_t visible = poller.VisibleUs(r.txid);
    if (visible != 0) {
      tracer->Record(trace, root, "consensus.order", r.returned_us,
                     std::max(visible, r.returned_us));
      tracer->Record(trace, root, "core.block_to_decision",
                     std::max(visible, r.returned_us), r.majority_us);
    }
    tracer->RecordWithId(root, trace, 0, "txn", r.scheduled_us,
                         r.majority_us);
  }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Replay blocks [from, to] of `node0`'s store: codec encode/decode, cold
/// signature verification on a pool of `verify_threads`, fsync'd append
/// into a fresh store under `dir`, and re-signing of the payloads signed
/// by `client`.
static ReplayResult ReplayBlocks(brdb::DatabaseNode* node0,
                                 const brdb::CertificateRegistry& registry,
                                 const brdb::Identity& client,
                                 brdb::BlockNum from, brdb::BlockNum to,
                                 const std::string& dir,
                                 size_t verify_threads) {
  ReplayResult out;
  auto store = brdb::BlockStore::Open(dir);
  if (!store.ok()) {
    out.status = store.status();
    return out;
  }
  brdb::ThreadPool pool(verify_threads);
  constexpr size_t kMaxSignatures = 4000;
  for (brdb::BlockNum n = 1; n <= to; ++n) {
    auto blk = node0->block_store()->Get(n);
    if (!blk.ok()) {
      out.status = blk.status();
      return out;
    }
    const brdb::Block& block = blk.value();
    bool timed = n >= from;
    ReplayTimes t;
    t.number = n;
    t.txns = block.transactions().size();

    int64_t t0 = NowUs();
    std::string bytes = block.Encode();
    int64_t t1 = NowUs();
    auto decoded = brdb::Block::Decode(bytes);
    int64_t t2 = NowUs();
    if (!decoded.ok() || decoded.value().hash() != block.hash()) {
      out.status = Status::Internal("block codec round trip diverged at " +
                                    std::to_string(n));
      return out;
    }
    t.encode_us = static_cast<double>(t1 - t0);
    t.decode_us = static_cast<double>(t2 - t1);
    t.encoded_bytes = bytes.size();

    if (timed) {
      brdb::SignatureVerifier cold(&pool);
      std::vector<const brdb::Transaction*> txs;
      for (const auto& tx : block.transactions()) txs.push_back(&tx);
      int64_t v0 = NowUs();
      std::vector<Status> verdicts = cold.VerifyTransactions(registry, txs);
      t.verify_us = static_cast<double>(NowUs() - v0);
      for (size_t i = 0; i < verdicts.size(); ++i) {
        if (!verdicts[i].ok()) {
          out.status = Status::Internal(
              "replayed signature check failed in block " +
              std::to_string(n) + ": " + verdicts[i].ToString());
          return out;
        }
      }
      for (const auto& tx : block.transactions()) {
        if (tx.user() != client.name || out.sign_us.size() >= kMaxSignatures) {
          continue;
        }
        std::string payload = tx.SignedPayload();
        int64_t s0 = NowNs();
        brdb::Signature sig = client.Sign(payload);
        out.sign_us.push_back(static_cast<double>(NowNs() - s0) / 1000.0);
        if (!(sig == tx.signature())) {
          out.status = Status::Internal("re-signed payload differs for " +
                                        tx.id());
          return out;
        }
      }
    }

    int64_t a0 = NowNs();
    Status appended = store.value()->Append(block);
    t.append_us = static_cast<double>(NowNs() - a0) / 1000.0;
    if (!appended.ok()) {
      out.status = appended;
      return out;
    }
    if (timed) out.blocks.push_back(t);
  }
  return out;
}

/// Replay the blocks holding `window`'s transactions.
static ReplayResult ReplayWindow(brdb::DatabaseNode* node0,
                                 const brdb::CertificateRegistry& registry,
                                 const brdb::Identity& client,
                                 const WindowRun& window,
                                 const std::string& dir) {
  brdb::BlockNum from = 0, to = 0;
  for (const TxnRecord& r : window.records) {
    if (r.phase != window.phase || r.block == 0) continue;
    from = from == 0 ? r.block : std::min(from, r.block);
    to = std::max(to, r.block);
  }
  if (to == 0) {
    ReplayResult empty;
    empty.status = Status::Internal("no committed block in the window");
    return empty;
  }
  return ReplayBlocks(node0, registry, client, from, to, dir, kVerifyThreads);
}

/// Adds the crypto.*, wire.* and ledger.append_us metrics and prints the
/// "where did the block go" table for node 0.
static void ReportBlockBreakdown(const WindowRun& window,
                                 const BlockPoller& poller,
                                 const ReplayResult& replay, Report* report) {
  // Per-block sums of the per-transaction client-side intervals (ms).
  struct TxnSide {
    double order_wait = 0;
    double to_decision = 0;  // block visible -> majority decision
    double to_node0 = 0;     // block visible -> node 0's decision
    size_t n = 0;
  };
  std::map<brdb::BlockNum, TxnSide> by_block;
  std::vector<double> order_wait, to_decision;
  for (const TxnRecord& r : window.records) {
    if (r.phase != window.phase || !r.committed || r.node0_us == 0) continue;
    int64_t visible = poller.VisibleUs(r.txid);
    if (visible == 0) continue;
    double ow = static_cast<double>(visible - r.scheduled_us) / 1000.0;
    double bd = static_cast<double>(r.majority_us - visible) / 1000.0;
    order_wait.push_back(ow);
    to_decision.push_back(bd);
    TxnSide& side = by_block[r.block];
    side.order_wait += ow;
    side.to_decision += bd;
    side.to_node0 += static_cast<double>(r.node0_us - visible) / 1000.0;
    ++side.n;
  }
  report->Metric("consensus.order_wait_ms", Median(order_wait), "ms",
                 order_wait.size(), "median, scheduled send -> block visible");
  report->Metric("core.block_to_decision_ms", Median(to_decision), "ms",
                 to_decision.size(),
                 "median, block visible -> majority decision");

  std::map<brdb::BlockNum, const ReplayTimes*> replayed;
  double verify_sum = 0, encode_sum = 0, decode_sum = 0;
  size_t txn_sum = 0, bytes_sum = 0, nblocks = 0;
  std::vector<double> append_us;
  for (const ReplayTimes& t : replay.blocks) {
    replayed[t.number] = &t;
    verify_sum += t.verify_us;
    encode_sum += t.encode_us;
    decode_sum += t.decode_us;
    append_us.push_back(t.append_us);
    txn_sum += t.txns;
    bytes_sum += t.encoded_bytes;
    ++nblocks;
  }
  double txns = static_cast<double>(std::max<size_t>(1, txn_sum));
  double blocks = static_cast<double>(std::max<size_t>(1, nblocks));
  report->Metric("crypto.sign_us", Median(replay.sign_us), "us",
                 replay.sign_us.size(),
                 "median Schnorr sign of a replayed payload");
  report->Metric("crypto.verify_us_per_txn", verify_sum / txns, "us", txn_sum,
                 "cold SignatureVerifier over node 0's blocks");
  report->Metric("wire.block_encode_us", encode_sum / blocks, "us", nblocks);
  report->Metric("wire.block_decode_us", decode_sum / blocks, "us", nblocks);
  report->Metric("wire.bytes_per_txn",
                 static_cast<double>(bytes_sum) / txns, "B", txn_sum);
  report->Metric("ledger.append_us", Median(append_us), "us",
                 append_us.size(), "median fsync'd BlockStore::Append");

  // The "where did the block go" table: per block of the window, the mean
  // client-side intervals of its transactions, node 0's timers for it and
  // the replayed layer costs.
  std::printf(
      "\nwhere did the block go (node 0; ms; per-transaction columns are "
      "means over the block)\n"
      "  wall     = order_wait + blk->dec\n"
      "  node 0   = verify + prepare + exec_wait + commit  (its bpt)\n"
      "  residual = blk->dec - node 0 bpt: delivery to the nodes, queueing\n"
      "             behind earlier blocks, the decision's trip to the client\n"
      "             and the 200 us poll; negative when node 0 is not in the\n"
      "             deciding majority (blk->n0 is node 0's own decision)\n"
      "  r.*      = the same block's decode, cold verify and fsync'd append\n"
      "             replayed alone; contained in delivery, verify, commit\n");
  const char* kCols[] = {"txns",     "order_wait", "verify", "prepare",
                         "exec_wait", "commit",    "blk->dec", "residual",
                         "blk->n0",  "wall",       "r.decode", "r.verify",
                         "r.append"};
  constexpr int kN = 13;
  std::printf("  %7s", "block");
  for (const char* c : kCols) std::printf(" %9s", c);
  std::printf("\n");
  double sum[kN] = {};
  size_t rows = 0;
  for (const BlockObservation& b : poller.Blocks()) {
    auto side = by_block.find(b.number);
    auto rp = replayed.find(b.number);
    if (side == by_block.end() || rp == replayed.end() || !b.exact) continue;
    double n = static_cast<double>(side->second.n);
    double ow = side->second.order_wait / n;
    double bd = side->second.to_decision / n;
    double v[kN] = {static_cast<double>(b.txns),
                    ow,
                    b.verify_ms,
                    b.prepare_ms,
                    b.exec_wait_ms,
                    b.commit_ms,
                    bd,
                    bd - b.bpt_ms(),
                    side->second.to_node0 / n,
                    ow + bd,
                    rp->second->decode_us / 1000.0,
                    rp->second->verify_us / 1000.0,
                    rp->second->append_us / 1000.0};
    for (int i = 0; i < kN; ++i) sum[i] += v[i];
    if (rows++ < 8) {
      std::printf("  %7" PRIu64, static_cast<uint64_t>(b.number));
      for (double x : v) std::printf(" %9.3f", x);
      std::printf("\n");
    }
  }
  if (rows == 0) return;
  std::printf("  %7s", "mean");
  for (double x : sum) std::printf(" %9.3f", x / static_cast<double>(rows));
  std::printf("\n  (%zu blocks with timers of their own; the residual is "
              "%.1f%% of blk->dec)\n\n",
              rows, sum[6] != 0 ? 100.0 * sum[7] / sum[6] : 0.0);
  report->Info("breakdown.blocks", static_cast<double>(rows));
  report->Info("breakdown.residual_ms_mean",
               sum[7] / static_cast<double>(rows));
}

NodeCounterBase ReadSqlCounters(brdb::DatabaseNode* node) {
  NodeCounterBase b;
  b.plan_hits = node->sql_engine()->plan_cache_hits();
  b.plan_misses = node->sql_engine()->plan_cache_misses();
  b.access_path_hits = node->sql_engine()->access_path_hits();
  return b;
}

void ReportNodeCounters(brdb::DatabaseNode* node, const NodeCounterBase& base,
                        Report* report) {
  brdb::MetricsSnapshot m = node->metrics()->Snapshot();
  report->Metric("core.block_ms", m.bpt_ms, "ms", m.blocks_processed, "bpt");
  report->Metric("core.verify_ms", m.stage_verify_ms, "ms",
                 m.blocks_processed);
  report->Metric("core.prepare_ms", m.stage_prepare_ms, "ms",
                 m.blocks_processed);
  report->Metric("core.commit_ms", m.stage_commit_ms, "ms",
                 m.blocks_processed);
  report->Metric("core.busy_pct", m.su, "%", 0, "su");
  report->Metric("core.exec_ms", m.bet_ms, "ms", m.blocks_processed, "bet");
  report->Metric("core.txn_exec_ms", m.tet_ms, "ms", 0, "tet");
  report->Metric("core.pipeline_occupancy", m.pipeline_occupancy_avg,
                 "blocks");
  uint64_t decided = m.txns_committed + m.txns_aborted;
  report->Metric("consensus.txns_per_block",
                 m.blocks_processed == 0
                     ? 0
                     : static_cast<double>(decided) /
                           static_cast<double>(m.blocks_processed),
                 "txns", m.blocks_processed);
  report->Metric("txn.abort_pct",
                 decided == 0 ? 0
                              : 100.0 * static_cast<double>(m.txns_aborted) /
                                    static_cast<double>(decided),
                 "%", decided);
  report->Metric(
      "txn.tracked_txns",
      static_cast<double>(node->db()->txn_manager()->TrackedCount()),
      "count");
  NodeCounterBase now = ReadSqlCounters(node);
  double execs = static_cast<double>((now.plan_hits - base.plan_hits) +
                                     (now.plan_misses - base.plan_misses));
  report->Metric("sql.plan_cache_hit_pct",
                 execs == 0 ? 0
                            : 100.0 *
                                  static_cast<double>(now.plan_hits -
                                                      base.plan_hits) /
                                  execs,
                 "%", static_cast<size_t>(execs));
  report->Metric("sql.access_path_hit_pct",
                 execs == 0 ? 0
                            : 100.0 *
                                  static_cast<double>(now.access_path_hits -
                                                      base.access_path_hits) /
                                  execs,
                 "%", static_cast<size_t>(execs));
  uint64_t scans = m.vectorized_scans + m.row_fallback_scans;
  report->Metric("sql.vectorized_pct",
                 scans == 0 ? 0
                            : 100.0 * static_cast<double>(m.vectorized_scans) /
                                  static_cast<double>(scans),
                 "%", scans, "columnar-eligible SELECTs kept vectorized");
  report->Metric("ledger.builder_lag_blocks",
                 static_cast<double>(m.columnar_builder_lag), "blocks");
  report->Metric("ledger.segments_sealed",
                 static_cast<double>(m.columnar_segments_sealed), "count");
}

void ReportTracedLayers(brdb::DatabaseNode* node0,
                        const brdb::CertificateRegistry& registry,
                        const brdb::Identity& client, const WindowRun& window,
                        const BlockPoller& poller, const Options& opts,
                        Report* report) {
  Tracer tracer;
  RecordTxnSpans(window, poller, &tracer);
  std::vector<double> submit_us;
  for (const TxnRecord& r : window.records) {
    if (r.phase == window.phase && r.submit_ok) {
      submit_us.push_back(static_cast<double>(r.submit_ns) / 1000.0);
    }
  }
  Sample submit(std::move(submit_us));
  report->Metric("core.submit_p50_us", submit.Median(), "us", submit.size());
  report->Metric("core.submit_p99_us", submit.Percentile(99), "us",
                 submit.size());
  Sample self(tracer.SelfTimesUs("txn"));
  report->Info("span.txn_self_time_p50_us", self.Median());

  ReplayResult replay = ReplayWindow(node0, registry, client, window,
                                     opts.work_dir + "/replay");
  if (!replay.status.ok()) {
    report->Fail("replay: " + replay.status.ToString());
    return;
  }
  ReportBlockBreakdown(window, poller, replay, report);

  uint64_t chain_txns = 0;
  for (brdb::BlockNum b = 1; b <= node0->block_store()->Height(); ++b) {
    auto blk = node0->block_store()->Get(b);
    if (blk.ok()) chain_txns += blk.value().transactions().size();
  }
  report->Metric("ledger.bytes_per_txn",
                 static_cast<double>(DirBytes(node0->block_store()->path())) /
                     static_cast<double>(std::max<uint64_t>(1, chain_txns)),
                 "B", chain_txns, "node 0's segment files over its chain");
  if (!tracer.WriteJsonl(opts.work_dir + "/spans.jsonl")) {
    report->Fail("could not write the span file");
  }
}

void QueryLoop::ReportTo(const std::string& note, Report* report) const {
  Sample q(latencies_ms);
  int64_t end_us = start_us + static_cast<int64_t>(seconds * 1e6);
  size_t k50 = 0, k99 = 0;
  double p50 = SlicedPercentile(latencies_ms, sent_us, start_us, end_us, 50,
                                kMinSliceForP50, kMaxSlices, &k50);
  double p99 = SlicedPercentile(latencies_ms, sent_us, start_us, end_us, 99,
                                kMinSliceForP99, kMaxSlices, &k99);
  report->Metric("query_p50_ms", p50, "ms", q.size(),
                 note + "; median of " + std::to_string(k50) + " slices");
  report->Metric("query_p99_ms", p99, "ms", q.size(),
                 "median of " + std::to_string(k99) + " slices");
  report->Metric("query_qps",
                 seconds > 0 ? static_cast<double>(q.size()) / seconds : 0,
                 "1/s", q.size());
}

QueryLoop RunQueryLoop(const std::function<bool()>& keep_going,
                       const QueryFn& query) {
  QueryLoop loop;
  loop.start_us = NowUs();
  for (size_t i = 0; keep_going(); ++i) {
    int64_t t0 = NowUs();
    auto r = query(i);
    int64_t t1 = NowUs();
    if (r.ok()) {
      loop.latencies_ms.push_back(static_cast<double>(t1 - t0) / 1000.0);
      loop.sent_us.push_back(t0);
    } else {
      ++loop.errors;
    }
  }
  loop.seconds = static_cast<double>(NowUs() - loop.start_us) / 1e6;
  return loop;
}

QueryLoop RunQueryLoopFor(double seconds, const QueryFn& query) {
  int64_t until = NowUs() + static_cast<int64_t>(seconds * 1e6);
  return RunQueryLoop([until] { return NowUs() < until; }, query);
}

bool WaitAllAtHeight(const std::vector<brdb::DatabaseNode*>& nodes,
                     brdb::OrderingService* ordering, int64_t deadline_us) {
  brdb::BlockNum last = 0;
  int64_t stable_since = NowUs();
  while (NowUs() < deadline_us) {
    brdb::BlockNum h = ordering->Height();
    bool caught_up = true;
    for (brdb::DatabaseNode* n : nodes) caught_up &= n->Height() >= h;
    if (!caught_up || h != last) {
      last = h;
      stable_since = NowUs();
    } else if (NowUs() - stable_since > 300'000) {
      // Let the columnar history catch up too, so that reads that follow
      // see sealed segments rather than a backlog.
      for (brdb::DatabaseNode* n : nodes) {
        if (n->history_builder() != nullptr) {
          n->history_builder()->WaitForWatermark(n->Height());
        }
      }
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

void CheckAgreement(const std::vector<brdb::DatabaseNode*>& nodes,
                    Report* report) {
  if (nodes.empty()) return;
  brdb::BlockNum height = nodes[0]->Height();
  for (brdb::DatabaseNode* n : nodes) {
    if (n->Height() != height) {
      report->Fail("height diverged: " + nodes[0]->name() + "=" +
                   std::to_string(height) + " " + n->name() + "=" +
                   std::to_string(n->Height()));
      return;
    }
    if (!n->checkpoints()->Divergences().empty()) {
      report->Fail(n->name() + " observed a checkpoint divergence");
    }
  }
  size_t matched = 0;
  for (brdb::BlockNum b = 1; b <= height; ++b) {
    std::string h0 = nodes[0]->checkpoints()->LocalHash(b);
    for (brdb::DatabaseNode* n : nodes) {
      if (h0.empty() || n->checkpoints()->LocalHash(b) != h0) {
        report->Fail("write-set hash of block " + std::to_string(b) +
                     " differs on " + n->name());
        return;
      }
    }
    if (nodes[0]->CheckpointMatches(b) + 1 == nodes.size()) ++matched;
  }
  // Votes for the newest blocks may still wait for a block to carry them;
  // every block older than kVoteLagBlocks must have every peer's matching
  // vote.
  constexpr brdb::BlockNum kVoteLagBlocks = 10;
  if (nodes.size() > 1 && matched + kVoteLagBlocks < height) {
    report->Fail("only " + std::to_string(matched) + " of " +
                 std::to_string(height) +
                 " blocks have every peer's matching checkpoint vote");
  }
  report->Info("gate.agreement",
               std::to_string(nodes.size()) + " nodes at height " +
                   std::to_string(height) + ", write-set hashes identical, " +
                   std::to_string(matched) + " blocks fully vote-matched");
}

void CheckRowCount(const std::vector<brdb::DatabaseNode*>& nodes,
                   const std::string& user, const std::string& table,
                   uint64_t expected, Report* report) {
  for (brdb::DatabaseNode* n : nodes) {
    auto r = n->Query(user, "SELECT COUNT(*) FROM " + table);
    if (!r.ok()) {
      report->Fail("count of " + table + " on " + n->name() + ": " +
                   r.status().ToString());
      return;
    }
    auto v = r.value().Scalar();
    if (!v.ok() || static_cast<uint64_t>(v.value().AsInt()) != expected) {
      report->Fail(table + " on " + n->name() + " holds " +
                   (v.ok() ? std::to_string(v.value().AsInt()) : "?") +
                   " rows, expected " + std::to_string(expected));
      return;
    }
  }
  report->Info("gate.rows." + table,
               std::to_string(expected) + " on every node");
}

void CheckQueryParity(brdb::DatabaseNode* node, const std::string& user,
                      const std::string& sql,
                      const std::vector<brdb::Value>& params,
                      Report* report) {
  auto row = node->Query(user, sql, params, brdb::QueryPath::kForceRow);
  auto col = node->Query(user, sql, params, brdb::QueryPath::kDefault);
  if (!row.ok() || !col.ok()) {
    report->Fail("parity query failed: " + sql + ": " +
                 (!row.ok() ? row.status() : col.status()).ToString());
    return;
  }
  const auto& a = row.value();
  const auto& b = col.value();
  bool same = a.columns == b.columns && a.rows.size() == b.rows.size();
  for (size_t i = 0; same && i < a.rows.size(); ++i) {
    same = brdb::EncodeRow(a.rows[i]) == brdb::EncodeRow(b.rows[i]);
  }
  if (!same) {
    report->Fail("row-store and columnar results differ for: " + sql);
  }
}

}  // namespace brdbbench
