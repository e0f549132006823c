// Shared machinery of the three workloads: the open-loop generator, the
// decision tracker (majority commit per transaction, from the Transport's
// decision events), the traced run's orderer/node poller, process
// resource readings, provenance, and the result report.
#ifndef BRDBBENCH_HARNESS_H_
#define BRDBBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/node.h"
#include "core/session.h"
#include "core/transport.h"
#include "stats.h"
#include "trace.h"

namespace brdbbench {

using brdb::Status;

/// Steady-clock microseconds (process-local epoch).
int64_t NowUs();

/// Peak and current resident set size of this process, MiB.
double PeakRssMb();
double RssMb();

/// Upper bound on the wait for a window's decisions.
inline constexpr int64_t kDrainUs = 15'000'000;
/// Verification pool for the replay: the node's default executor count.
inline constexpr size_t kVerifyThreads = 8;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    ///< fresh per-run directory for ledgers/spans
  std::string source_rev;  ///< git sha or source digest (from run.py)
};

// ---------------------------------------------------------------------------
// Result report
// ---------------------------------------------------------------------------

/// Metrics, provenance and gate results of one run. Printed as readable
/// lines, then as the final one-line JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0, const std::string& note = "");
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  /// A failed correctness gate: the run exits non-zero, no metrics.
  void Fail(const std::string& what);
  bool failed() const { return !failures_.empty(); }
  void Count(uint64_t attempted, uint64_t failed);

  /// Print everything, the JSON result last (a non-finite value as null);
  /// returns the process exit code (1 on a failed gate, in which case no
  /// metrics are printed).
  int Print() const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    size_t samples = 0;
    std::string note;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ops_ = 0;
};

/// nproc, CPU model, build type, compiler, source revision, seed, and the
/// workload's fixed configuration.
void AddProvenance(const Options& opts, Report* report);

// ---------------------------------------------------------------------------
// Decision tracking
// ---------------------------------------------------------------------------

/// One submitted transaction, as the client saw it.
struct TxnRecord {
  std::string txid;
  int kind = 0;             ///< workload-defined (e.g. join vs group)
  int phase = 0;            ///< load phase (0 = warm-up, discarded)
  int64_t scheduled_us = 0; ///< open-loop send instant
  int64_t sent_us = 0;      ///< Submit() called
  int64_t returned_us = 0;  ///< Submit() returned
  int64_t submit_ns = 0;    ///< Submit() duration, at nanosecond resolution
  bool submit_ok = false;
  int64_t majority_us = 0;  ///< majority decision observed (0 = none)
  int64_t node0_us = 0;     ///< node 0's decision observed (0 = none)
  bool committed = false;   ///< majority committed (else aborted/undecided)
  brdb::BlockNum block = 0;
};

/// Subscribes to a Transport's decision events and timestamps the majority
/// decision of every registered transaction. Events for transactions not
/// yet registered (a decision can beat Submit's response) are held until
/// Add() claims them.
class DecisionTracker {
 public:
  DecisionTracker(brdb::Transport* transport, size_t num_nodes,
                  std::string node0_name);
  ~DecisionTracker();
  DecisionTracker(const DecisionTracker&) = delete;
  DecisionTracker& operator=(const DecisionTracker&) = delete;

  void Add(TxnRecord rec);
  /// Wait until every registered submitted transaction has a majority
  /// decision or `deadline_us` passes. True when all decided.
  bool WaitDecided(int64_t deadline_us);
  std::vector<TxnRecord> Records() const;

 private:
  struct Event {
    std::string peer;
    bool ok = false;
    brdb::BlockNum block = 0;
    int64_t at_us = 0;
  };
  struct State {
    size_t index = 0;
    size_t commits = 0;
    size_t aborts = 0;
  };
  void OnEvent(const std::string& peer, const brdb::TxnNotification& n);
  void ApplyLocked(State* st, const Event& e);

  brdb::Transport* transport_;
  size_t majority_;
  std::string node0_;
  uint64_t sub_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<TxnRecord> records_;
  std::unordered_map<std::string, State> states_;
  std::unordered_map<std::string, std::vector<Event>> early_;
  size_t undecided_ = 0;
};

// ---------------------------------------------------------------------------
// Open-loop generator
// ---------------------------------------------------------------------------

struct Call {
  std::string contract;
  std::vector<brdb::Value> args;
  int kind = 0;
};

/// Submit `count` calls at `rate` per second from `start_us` with one
/// Session on the calling thread, tagging the records with `phase`.
/// Latency is later timed from each call's scheduled instant.
void RunOpenLoop(brdb::Session* session, DecisionTracker* tracker,
                 double rate, int64_t start_us, size_t count, int phase,
                 const std::function<Call(size_t)>& make_call);

/// End-to-end numbers of one fixed-rate window.
struct WindowStats {
  size_t attempted = 0;
  size_t committed = 0;
  size_t failed = 0;   ///< submit errors + aborts + undecided
  std::vector<double> latencies_ms;  ///< committed, from scheduled instant
  std::vector<int64_t> scheduled_us;  ///< the scheduled instant of each
  std::vector<int64_t> miss_scheduled_us;  ///< same, for the misses
  int64_t start_us = 0;               ///< the window
  int64_t end_us = 0;
  std::vector<double> lag_ms;        ///< sent - scheduled
  size_t landed = 0;  ///< majority commits (any phase) inside the window
  double commit_tps = 0;  ///< their rate from the first to the last of them
  RateStep AsStep(double offered_tps) const;
};

/// Percentiles of a window or query loop are medians over up to
/// kMaxSlices equal time slices (SlicedPercentile) holding at least this
/// many samples each, so that one stall does not decide a run's value.
inline constexpr size_t kMaxSlices = 5;
inline constexpr size_t kMinSliceForP50 = 200;
inline constexpr size_t kMinSliceForP99 = 1000;
inline constexpr int kCpuSlices = 10;

/// Adds commit_p50_ms, commit_p99_ms, commit_tps and loadgen lag.
void ReportCommitMetrics(const WindowStats& w, Report* report);

/// One measured fixed-rate window and what the process spent on it.
struct WindowRun {
  int phase = 0;
  std::vector<TxnRecord> records;  ///< every phase's, as of the drain
  int64_t start_us = 0;
  int64_t end_us = 0;
  /// Process CPU-seconds per second: the median over kCpuSlices equal
  /// slices of [start_us, end_us], so a burst of load from other tenants
  /// of the host in one slice does not decide a run's value.
  double cpu_rate = 0;
  double steal_pct = 0;  ///< host CPU stolen over the window
  WindowStats stats;
  /// Majority commits landing inside the window.
  size_t landed() const { return stats.landed; }
  /// cpu_ms_per_txn: cpu_rate over commit_tps.
  double CpuMsPerTxn() const;
};

/// Run `seconds` of open-loop load at `rate` as `phase`, call `at_end`
/// when the schedule ends (before the drain), then wait up to kDrainUs for
/// every decision. `beside_cpu_s`, when set, reads the CPU seconds of work
/// that runs beside the load (htap-orders' analyst); it is sampled with the
/// process CPU and left out of cpu_rate.
WindowRun RunWindow(brdb::Session* session, DecisionTracker* tracker,
                    int phase, double rate, double seconds,
                    const std::function<Call(size_t)>& make_call,
                    const std::function<void()>& at_end,
                    const std::function<double()>& beside_cpu_s = {});

/// CPU seconds used so far by the running thread `thread`.
double ThreadCpuSeconds(std::thread& thread);

/// max_tps_at_slo: fixed-rate steps at `rates` (tps, ascending) of
/// `step_seconds` each after `first` (the fixed-rate window), up to the
/// first step that misses the SLO; the value interpolates between the last
/// passing and the first failing step (MaxRateAtSlo).
void RunRateSearch(brdb::Session* session, DecisionTracker* tracker,
                   int* phase, const RateStep& first,
                   const std::vector<double>& rates, double step_seconds,
                   const std::function<Call(size_t)>& make_call,
                   Report* report);

/// The traced run's end-to-end numbers minus the untraced run's.
void ReportTracingOverhead(const WindowRun& untraced, const WindowRun& traced,
                           Report* report);

// ---------------------------------------------------------------------------
// Traced run: orderer visibility and node 0's per-block stage timers
// ---------------------------------------------------------------------------

/// One block as the traced run saw it.
struct BlockObservation {
  brdb::BlockNum number = 0;
  size_t txns = 0;
  // Node 0's timers for this block: verify + prepare + exec_wait + commit
  // = bpt, where exec_wait = bet - verify - prepare is the commit stage's
  // wait for the block's executions and commit = bpt - bet the rest.
  double verify_ms = 0;
  double prepare_ms = 0;
  double exec_wait_ms = 0;
  double commit_ms = 0;
  double bpt_ms() const {
    return verify_ms + prepare_ms + exec_wait_ms + commit_ms;
  }
  bool exact = false;  ///< timers attributed to this block alone
};

/// Polls the ordering service's public Height()/GetBlock() and node 0's
/// committed height plus NodeMetrics on a background thread.
class BlockPoller {
 public:
  BlockPoller(brdb::OrderingService* ordering, brdb::DatabaseNode* node0);
  ~BlockPoller();
  BlockPoller(const BlockPoller&) = delete;
  BlockPoller& operator=(const BlockPoller&) = delete;

  void Start();
  void Stop();
  /// When the orderer first showed the transaction (0 = never seen).
  int64_t VisibleUs(const std::string& txid) const;
  std::vector<BlockObservation> Blocks() const;

 private:
  void Loop();

  brdb::OrderingService* ordering_;
  brdb::DatabaseNode* node0_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::unordered_map<std::string, int64_t> visible_;
  std::map<brdb::BlockNum, BlockObservation> blocks_;
  std::thread thread_;
};

/// Node 0's counters after the window: core.*, txn.*, sql.*, ledger gauges,
/// storage.zone_map_pruned_per_query.
struct NodeCounterBase {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t access_path_hits = 0;
};
NodeCounterBase ReadSqlCounters(brdb::DatabaseNode* node);
void ReportNodeCounters(brdb::DatabaseNode* node, const NodeCounterBase& base,
                        Report* report);

/// Everything the traced run derives from its window: core.submit_* from
/// the spans, the replay of the window's blocks (crypto.*, wire.*,
/// ledger.append_us), the block breakdown table, ledger.bytes_per_txn;
/// the spans are written to <work_dir>/spans.jsonl.
void ReportTracedLayers(brdb::DatabaseNode* node0,
                        const brdb::CertificateRegistry& registry,
                        const brdb::Identity& client, const WindowRun& window,
                        const BlockPoller& poller, const Options& opts,
                        Report* report);

/// A closed loop of read-only queries: the next is sent when the previous
/// one returns.
struct QueryLoop {
  std::vector<double> latencies_ms;
  std::vector<int64_t> sent_us;
  int64_t start_us = 0;
  uint64_t errors = 0;
  double seconds = 0;
  size_t attempted() const { return latencies_ms.size() + errors; }
  /// query_p50_ms, query_p99_ms, query_qps.
  void ReportTo(const std::string& note, Report* report) const;
};
using QueryFn = std::function<brdb::Result<brdb::sql::ResultSet>(size_t)>;
/// Run `query` back to back while `keep_going()` holds.
QueryLoop RunQueryLoop(const std::function<bool()>& keep_going,
                       const QueryFn& query);
/// Run `query` back to back for `seconds`.
QueryLoop RunQueryLoopFor(double seconds, const QueryFn& query);

/// Wait until every node has committed the ordering service's height and
/// it stops moving. False at the deadline.
bool WaitAllAtHeight(const std::vector<brdb::DatabaseNode*>& nodes,
                     brdb::OrderingService* ordering, int64_t deadline_us);

/// Correctness gate: every node has the same height, and for every block
/// the same write-set hash; node 0's checkpoint votes matched its peers on
/// the last voted blocks.
void CheckAgreement(const std::vector<brdb::DatabaseNode*>& nodes,
                    Report* report);

/// Correctness gate: `SELECT COUNT(*) FROM <table>` on every node equals
/// `expected`.
void CheckRowCount(const std::vector<brdb::DatabaseNode*>& nodes,
                   const std::string& user, const std::string& table,
                   uint64_t expected, Report* report);

/// Correctness gate: `sql` is byte-identical on the row-store and the
/// columnar path of `node` at its current snapshot.
void CheckQueryParity(brdb::DatabaseNode* node, const std::string& user,
                      const std::string& sql,
                      const std::vector<brdb::Value>& params,
                      Report* report);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// setup_s: `setup(i, &status)` builds the network, timed, `repeats`
/// times. The first one is handed to `run` and torn down after it; the
/// others are built only after that, so that what a torn-down network
/// leaves behind never shares the process with the measured window. Reports
/// the median as setup_s; a failed set-up is a failed gate.
template <typename T>
void RunWithSetups(
    int repeats,
    const std::function<std::unique_ptr<T>(int, Status*)>& setup,
    const std::function<void(T*)>& run, Report* report) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    Status status;
    int64_t t0 = NowUs();
    std::unique_ptr<T> env = setup(i, &status);
    seconds.push_back(static_cast<double>(NowUs() - t0) / 1e6);
    if (env == nullptr) {
      report->Fail("set-up " + std::to_string(i) +
                   " failed: " + status.ToString());
      return;
    }
    if (i == 0) run(env.get());
  }
  std::string each;
  for (double s : seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", each.empty() ? "" : " ", s);
    each += buf;
  }
  report->Metric("setup_s", Median(seconds), "s", seconds.size(),
                 "median of set-ups: " + each);
}

}  // namespace brdbbench

#endif  // BRDBBENCH_HARNESS_H_
