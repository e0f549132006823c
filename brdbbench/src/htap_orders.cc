// Workload htap-orders.
//
// One organization (analytics is node-local, §3.7, and a single node is
// the baseline of a consensus measurement), order-then-execute. The
// history is 100 customers plus 10,000 seeded orders. An open-loop
// seed_order insert stream runs at 500 tps; beside it one closed-loop
// analyst Session runs a seeded round-robin of three queries: the fig6
// core (join + SUM per region over the full history), the fig7 core (group
// by + top-1 over a customer range) and a recent-window aggregate
// (order_id >= frontier - 2000) that reads the row-store tail plus
// zone-map-pruned sealed segments.
//
// Why: writes land beside reads on the same tables. Query time is set by
// src/sql vectorized execution, src/storage columnar segments and zone
// maps, and the src/ledger history builder, which share the cores with the
// commit path, so a gain on one side that taxes the other shows here. It
// bypasses multi-node agreement, the EOP flow and TCP.
#include <random>
#include <thread>

#include "contracts/workload_contracts.h"
#include "workloads.h"

namespace brdbbench {
namespace {

using brdb::Value;

constexpr double kFixedRate = 500;
constexpr int kCustomers = 100;
constexpr int kOrders = 10000;

std::vector<std::string> Schema() {
  std::vector<std::string> out;
  for (const std::string& stmt : brdb::WorkloadSchemaStatements()) {
    if (stmt.find("customers") != std::string::npos ||
        stmt.find("orders") != std::string::npos ||
        stmt.find("seed_") != std::string::npos) {
      out.push_back(stmt);
    }
  }
  return out;
}

void MeasureHtapOrders(const Options& opts, SimEnv* env, Report* report) {
  std::vector<brdb::DatabaseNode*> nodes = env->Nodes();
  brdb::DatabaseNode* node0 = nodes[0];
  brdb::Session* client = env->client;
  brdb::Session* analyst = env->net->CreateSession("org1", "analyst");
  const brdb::TransportCounters& counters = env->net->transport()->counters();
  DecisionTracker tracker(env->net->transport(), nodes.size(), node0->name());

  std::mt19937_64 rng(opts.seed);
  std::atomic<int64_t> frontier{kOrders - 1};
  auto make = [&](size_t) {
    int64_t id = frontier.load() + 1;
    Call call{"seed_order",
              {Value::Int(id), Value::Int(static_cast<int64_t>(rng() % 100)),
               Value::Int(10 + static_cast<int64_t>(rng() % 90))},
              0};
    frontier.store(id);
    return call;
  };

  // The analyst runs beside the insert stream for the whole of `body`.
  // Its queries run on its own thread (Session::Query is synchronous in
  // process), and `analyst_cpu_s` reads that thread's CPU, so
  // cpu_ms_per_txn counts the commit path only: the closed loop keeps about
  // one core busy whatever the queries cost.
  std::function<double()> analyst_cpu_s;
  auto with_analyst = [&](const std::function<void()>& body,
                          QueryLoop* out) {
    std::atomic<bool> done{false};
    std::mt19937_64 qrng(opts.seed ^ 0x5eedULL);
    std::thread analyst_thread([&] {
      *out = RunQueryLoop([&] { return !done.load(); }, [&](size_t i) {
        size_t q = i % AnalyticQueries().size();
        return analyst->Query(AnalyticQueries()[q],
                              AnalyticParams(q, qrng(), frontier.load()));
      });
    });
    analyst_cpu_s = [&] { return ThreadCpuSeconds(analyst_thread); };
    body();
    analyst_cpu_s = nullptr;
    done = true;
    analyst_thread.join();
  };

  int phase = 0;
  RunOpenLoop(client, &tracker, kFixedRate, NowUs() + 1000,
              static_cast<size_t>(kFixedRate * kWarmupSeconds), phase, make);
  QueryLoop queries;
  WindowRun untraced;
  with_analyst(
      [&] {
        untraced = RunWindow(client, &tracker, ++phase, kFixedRate,
                             opts.seconds, make, {}, analyst_cpu_s);
      },
      &queries);
  WindowRun window = untraced;
  BlockPoller poller(env->net->ordering(), node0);
  uint64_t frames = 0, bytes = 0;
  if (opts.trace) {
    node0->metrics()->Reset();
    NodeCounterBase sql_base = ReadSqlCounters(node0);
    uint64_t frames0 = counters.frames_sent + counters.frames_received;
    uint64_t bytes0 = counters.bytes_sent + counters.bytes_received;
    QueryLoop traced_queries;
    poller.Start();
    with_analyst(
        [&] {
          window = RunWindow(client, &tracker, ++phase, kFixedRate,
                             opts.seconds, make, [&] {
                             ReportNodeCounters(node0, sql_base, report);
                             frames = counters.frames_sent +
                                      counters.frames_received - frames0;
                             bytes = counters.bytes_sent +
                                     counters.bytes_received - bytes0;
                           }, analyst_cpu_s);
        },
        &traced_queries);
    poller.Stop();
    ReportTracingOverhead(untraced, window, report);
    report->Info("trace_overhead.query_p50_ms",
                 Median(traced_queries.latencies_ms) -
                     Median(queries.latencies_ms));
    queries.errors += traced_queries.errors;
  }
  ReportCommitMetrics(window.stats, report);
  report->Info("host.steal_pct", window.steal_pct);
  ReportProcessMetrics(window, report);
  queries.ReportTo("analyst mix beside the insert stream", report);

  tracker.WaitDecided(NowUs() + kDrainUs);
  int64_t wait0 = NowUs();
  if (!WaitAllAtHeight(nodes, env->net->ordering(), NowUs() + kDrainUs)) {
    report->Fail("nodes did not reach the orderer's height");
  }
  report->Info("final_catch_up_ms",
               static_cast<double>(NowUs() - wait0) / 1000.0);
  uint64_t attempted = queries.attempted();
  uint64_t failed = queries.errors;
  uint64_t inserted = 0;
  for (const TxnRecord& r : tracker.Records()) {
    inserted += r.committed;
    if (r.phase == 0) continue;
    ++attempted;
    failed += !r.committed;
  }
  CheckAgreement(nodes, report);
  CheckRowCount(nodes, client->name(), "orders", kOrders + inserted, report);
  CheckRowCount(nodes, client->name(), "customers", kCustomers, report);
  // Every query of the mix, byte-identical on both paths at the final
  // snapshot, for several seeded parameter sets.
  for (size_t q = 0; q < AnalyticQueries().size(); ++q) {
    for (uint64_t r = 0; r < 4; ++r) {
      CheckQueryParity(node0, analyst->name(), AnalyticQueries()[q],
                       AnalyticParams(q, opts.seed + r, frontier.load()),
                       report);
    }
  }
  report->Count(attempted, failed);

  if (opts.trace) {
    double txns = static_cast<double>(std::max<size_t>(1, window.landed()));
    report->Metric("network.frames_per_txn",
                   static_cast<double>(frames) / txns, "frames", 0,
                   "InProcessTransport codec frames, both directions");
    report->Metric("network.bytes_per_txn", static_cast<double>(bytes) / txns,
                   "B", 0, "InProcessTransport codec bytes");
    report->Metric("network.frames_dropped", 0, "count", 0,
                   "the in-process transport drops nothing");
    ReportTracedLayers(node0, *env->net->registry(), client->identity(),
                       window, poller, opts, report);
    std::vector<std::pair<std::string, std::vector<Value>>> replay;
    for (size_t q = 0; q < AnalyticQueries().size(); ++q) {
      replay.push_back({AnalyticQueries()[q],
                        AnalyticParams(q, opts.seed, frontier.load())});
    }
    ReplayQueryPaths(node0, analyst->name(), replay, report);
  }
}

}  // namespace

void RunHtapOrders(const Options& opts, Report* report) {
  report->Info("config", "order-then-execute, 1 org, Kafka ordering, block "
                         "size 100, timeout 100 ms, columnar analytics on, "
                         "node defaults");
  report->Info("load", "open loop, one Session, seed_order inserts at "
                       "500 tps + one closed-loop analyst Session");
  report->Info("network", "in-process SimNetwork, LAN profile "
                          "(100 us +- 50 us one way, 5 Gbps)");

  RunWithSetups<SimEnv>(
      kSetupRepeats,
      [&](int i, Status* st) -> std::unique_ptr<SimEnv> {
        auto e = CreateSimEnv(
            SimOptions(brdb::TransactionFlow::kOrderThenExecute, {"org1"},
                       opts.work_dir + "/setup" + std::to_string(i)),
            Schema(), st);
        if (e == nullptr) return nullptr;
        *st = SeedJoinTables(e->client, kCustomers, kOrders, opts.seed);
        if (!st->ok()) return nullptr;
        return e;
      },
      [&](SimEnv* env) { MeasureHtapOrders(opts, env, report); }, report);
}

}  // namespace brdbbench
