// Workload eop-join.
//
// Execute-order-in-parallel, three organizations on the in-process
// SimNetwork (LAN profile: 100 us +- 50 us one way, 5 Gbps) with one
// Kafka-style orderer per organization. After 100 customers x 2000 orders
// are seeded, one Session submits a seeded 3:1 mix of complex_join and
// complex_group at a fixed 100 tps, 38-56% of its knee: at 140 tps the
// commit latency and CPU per transaction followed the CPU other tenants
// took from the host. Each transaction writes one result row under a
// unique key, so nothing conflicts.
//
// Why: the time goes to join/aggregate execution, B+-tree reads and SSI
// read tracking on the executor pool, overlapped with ordering. Crypto,
// wire and ledger are a small share, so this workload bypasses what
// oe-simple-tcp stresses; it never touches src/network TCP.
#include <random>
#include <thread>

#include "contracts/workload_contracts.h"
#include "workloads.h"

namespace brdbbench {
namespace {

using brdb::Value;

constexpr double kFixedRate = 100;
constexpr int kCustomers = 100;
constexpr int kOrders = 2000;
constexpr double kReadSeconds = 5.0;
enum Kind { kJoin = 0, kGroup = 1 };

std::vector<std::string> Schema() {
  std::vector<std::string> out;
  for (const std::string& stmt : brdb::WorkloadSchemaStatements()) {
    if (stmt.find(" kv ") == std::string::npos) out.push_back(stmt);
  }
  return out;
}

void MeasureEopJoin(const Options& opts, SimEnv* env, Report* report) {
  std::vector<brdb::DatabaseNode*> nodes = env->Nodes();
  brdb::DatabaseNode* node0 = nodes[0];
  brdb::Session* client = env->client;
  brdb::SimNetwork* sim = env->net->network();
  DecisionTracker tracker(env->net->transport(), nodes.size(), node0->name());

  static const char* kRegions[] = {"emea", "amer", "apac", "latam"};
  std::mt19937_64 rng(opts.seed);
  int64_t next_id = 0;
  auto make = [&](size_t) {
    int64_t id = next_id++;
    if (rng() % 4 == 3) {
      int64_t lo = static_cast<int64_t>(rng() % 50);
      return Call{"complex_group",
                  {Value::Int(id), Value::Int(lo), Value::Int(lo + 49)},
                  kGroup};
    }
    return Call{"complex_join",
                {Value::Int(id), Value::Text(kRegions[rng() % 4])}, kJoin};
  };

  int phase = 0;
  RunOpenLoop(client, &tracker, kFixedRate, NowUs() + 1000,
              static_cast<size_t>(kFixedRate * kWarmupSeconds), phase, make);
  double rss0 = RssMb();
  WindowRun untraced =
      RunWindow(client, &tracker, ++phase, kFixedRate, opts.seconds, make, {});
  report->Info("rss_growth_kb_per_committed_txn",
               1024.0 * (RssMb() - rss0) /
                   static_cast<double>(
                       std::max<size_t>(1, untraced.stats.committed)));
  WindowRun window = untraced;
  BlockPoller poller(env->net->ordering(), node0);
  uint64_t messages = 0, bytes = 0;
  if (opts.trace) {
    node0->metrics()->Reset();
    NodeCounterBase sql_base = ReadSqlCounters(node0);
    uint64_t messages0 = sim->messages_delivered();
    uint64_t bytes0 = sim->bytes_delivered();
    poller.Start();
    window = RunWindow(client, &tracker, ++phase, kFixedRate, opts.seconds,
                       make, [&] {
                         ReportNodeCounters(node0, sql_base, report);
                         messages = sim->messages_delivered() - messages0;
                         bytes = sim->bytes_delivered() - bytes0;
                       });
    poller.Stop();
    ReportTracingOverhead(untraced, window, report);
  }
  ReportCommitMetrics(window.stats, report);
  report->Info("host.steal_pct", window.steal_pct);
  ReportProcessMetrics(window, report);

  QueryLoop reads;
  auto settle = [&] {
    tracker.WaitDecided(NowUs() + kDrainUs);
    WaitAllAtHeight(nodes, env->net->ordering(), NowUs() + kDrainUs);
  };
  if (!opts.trace) {
    settle();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    // Closed-loop reads of the contracts' join/aggregate core over every
    // region (query_* here).
    reads = RunQueryLoopFor(kReadSeconds, [&](size_t) {
      return client->QueryOn(
          0,
          "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders o "
          "JOIN customers c ON o.cust = c.cust_id "
          "GROUP BY c.region ORDER BY c.region");
    });
    reads.ReportTo("join + group by region on node 0, idle network", report);
  }

  tracker.WaitDecided(NowUs() + kDrainUs);
  int64_t wait0 = NowUs();
  if (!WaitAllAtHeight(nodes, env->net->ordering(), NowUs() + kDrainUs)) {
    report->Fail("nodes did not reach the orderer's height");
  }
  report->Info("final_catch_up_ms",
               static_cast<double>(NowUs() - wait0) / 1000.0);
  uint64_t attempted = reads.attempted();
  uint64_t failed = reads.errors;
  uint64_t joins = 0, groups = 0;
  for (const TxnRecord& r : tracker.Records()) {
    if (r.committed) ++(r.kind == kJoin ? joins : groups);
    if (r.phase == 0) continue;
    ++attempted;
    failed += !r.committed;
  }
  CheckAgreement(nodes, report);
  CheckRowCount(nodes, client->name(), "region_totals", joins, report);
  CheckRowCount(nodes, client->name(), "group_winners", groups, report);
  CheckRowCount(nodes, client->name(), "orders", kOrders, report);
  report->Count(attempted, failed);

  if (opts.trace) {
    double txns = static_cast<double>(std::max<size_t>(1, window.landed()));
    report->Metric("network.frames_per_txn",
                   static_cast<double>(messages) / txns, "frames", 0,
                   "SimNetwork messages delivered");
    report->Metric("network.bytes_per_txn", static_cast<double>(bytes) / txns,
                   "B", 0, "SimNetwork bytes delivered");
    report->Metric("network.frames_dropped", 0, "count", 0,
                   "SimNetwork drops only under an armed fault injector");
    ReportTracedLayers(node0, *env->net->registry(), client->identity(),
                       window, poller, opts, report);
    std::vector<std::pair<std::string, std::vector<Value>>> queries;
    for (size_t q = 0; q < AnalyticQueries().size(); ++q) {
      queries.push_back(
          {AnalyticQueries()[q], AnalyticParams(q, opts.seed, kOrders)});
    }
    ReplayQueryPaths(node0, client->name(), queries, report);
  }
}

}  // namespace

void RunEopJoin(const Options& opts, Report* report) {
  report->Info("config", "execute-order-in-parallel, 3 orgs, Kafka ordering, "
                         "block size 100, timeout 100 ms, node defaults");
  report->Info("load", "open loop, one Session, 3:1 complex_join:"
                       "complex_group over 100 customers x 2000 orders at "
                       "100 tps");
  report->Info("network", "in-process SimNetwork, LAN profile "
                          "(100 us +- 50 us one way, 5 Gbps)");

  RunWithSetups<SimEnv>(
      kSetupRepeats,
      [&](int i, Status* st) -> std::unique_ptr<SimEnv> {
        auto e = CreateSimEnv(
            SimOptions(brdb::TransactionFlow::kExecuteOrderParallel,
                       {"org1", "org2", "org3"},
                       opts.work_dir + "/setup" + std::to_string(i)),
            Schema(), st);
        if (e == nullptr) return nullptr;
        *st = SeedJoinTables(e->client, kCustomers, kOrders, opts.seed);
        if (!st->ok()) return nullptr;
        return e;
      },
      [&](SimEnv* env) { MeasureEopJoin(opts, env, report); }, report);
}

}  // namespace brdbbench
