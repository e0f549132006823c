// Workload oe-simple-tcp.
//
// Order-then-execute with the `simple` contract (a one-row INSERT with an
// 80-byte seeded payload), three organizations plus one Kafka-style
// orderer, run as OrdererProcess + NodeProcess objects on loopback TCP
// inside this process: the shape brdb_noded deploys. The client is one
// Session over a TcpTransport. The fixed rate of 1600 tps fills 100-txn
// blocks within the timeout, so blocks are cut by size; a rate search above
// it gives max_tps_at_slo.
//
// Why: SQL does almost nothing here, so per-transaction fixed costs set
// the result: the TCP submit round trip, signing and verification,
// framing, block cut, the fsync'd append and the serial commit. It is the
// only workload on src/network TCP. It bypasses joins, aggregates, SSI
// read tracking (blind inserts) and columnar analytics.
#include <random>
#include <thread>

#include "contracts/workload_contracts.h"
#include "network/cluster.h"
#include "workloads.h"

namespace brdbbench {
namespace {

using brdb::Value;

constexpr double kFixedRate = 1600;
/// Rate-search steps above the fixed rate (tps), each run for
/// kStepSeconds after the fixed-rate window; the search stops at the first
/// step that misses the SLO.
const std::vector<double> kSearchRates = {2000, 2500, 3000, 3500, 4000,
                                         4500, 5000, 5500, 6000};
constexpr double kStepSeconds = 1.0;
/// Closed-loop range reads after the commit window (query_* metrics).
constexpr double kReadSeconds = 3.0;
constexpr uint64_t kReadRange = 1000;

/// One OrdererProcess and three NodeProcesses on ephemeral loopback ports,
/// a TcpTransport, the three admin sessions and one client session.
struct TcpEnv {
  brdb::ClusterLayout layout;
  brdb::ClusterIdentities ids;
  std::unique_ptr<brdb::OrdererProcess> orderer;
  std::vector<std::unique_ptr<brdb::NodeProcess>> procs;
  std::shared_ptr<brdb::TcpTransport> transport;
  std::vector<std::unique_ptr<brdb::Session>> admins;
  std::unique_ptr<brdb::Session> client;

  ~TcpEnv() { Stop(); }

  void Stop() {
    client.reset();
    admins.clear();
    transport.reset();
    for (auto& p : procs) p->Stop();
    if (orderer) orderer->Stop();
  }

  std::vector<brdb::DatabaseNode*> Nodes() const {
    std::vector<brdb::DatabaseNode*> out;
    for (const auto& p : procs) out.push_back(p->node());
    return out;
  }

  static std::unique_ptr<TcpEnv> Create(const std::string& dir,
                                        Status* status) {
    auto env = std::make_unique<TcpEnv>();
    *status = env->Start(dir);
    if (!status->ok()) return nullptr;
    return env;
  }

 private:
  Status Start(const std::string& dir) {
    layout.orgs = {"org1", "org2", "org3"};
    layout.clients_per_org = 1;
    ids = brdb::BuildClusterIdentities(layout);

    brdb::OrdererProcessOptions oopts;
    oopts.layout = layout;
    oopts.type = brdb::ClusterOrdererType::kKafka;
    oopts.config.block_size = kBlockSize;
    oopts.config.block_timeout_us = kBlockTimeoutUs;
    oopts.expected_peers = layout.orgs.size();
    orderer = std::make_unique<brdb::OrdererProcess>(oopts);
    BRDB_RETURN_NOT_OK(orderer->StartServer());

    for (size_t i = 0; i < layout.orgs.size(); ++i) {
      brdb::NodeProcessOptions nopts;
      nopts.layout = layout;
      nopts.node_index = i;
      nopts.flow = brdb::TransactionFlow::kOrderThenExecute;
      nopts.block_store_path = dir + "/peer-" + layout.orgs[i];
      auto proc = std::make_unique<brdb::NodeProcess>(std::move(nopts));
      BRDB_RETURN_NOT_OK(proc->StartServer());
      BRDB_RETURN_NOT_OK(
          brdb::RegisterWorkloadContracts(proc->node()->contracts()));
      procs.push_back(std::move(proc));
    }
    for (size_t i = 0; i < procs.size(); ++i) {
      std::vector<brdb::TcpPeerAddress> others;
      for (size_t j = 0; j < procs.size(); ++j) {
        if (j != i) {
          others.push_back({procs[j]->name(), "127.0.0.1", procs[j]->port()});
        }
      }
      BRDB_RETURN_NOT_OK(procs[i]->ConnectAndStart(
          "127.0.0.1", orderer->port(), std::move(others)));
    }
    BRDB_RETURN_NOT_OK(orderer->WaitPeersAndStartOrdering());

    brdb::TcpTransportOptions topts;
    topts.client_name = ids.clients[0].name;
    topts.client_keys = ids.clients[0].keys;
    topts.registry = ids.registry;
    topts.flow = brdb::TransactionFlow::kOrderThenExecute;
    for (const auto& p : procs) {
      topts.peers.push_back({p->name(), "127.0.0.1", p->port()});
    }
    transport = std::make_shared<brdb::TcpTransport>(std::move(topts));
    BRDB_RETURN_NOT_OK(transport->Start());
    if (!transport->WaitReady(10'000'000)) {
      return Status::Unavailable("TCP transport did not authenticate");
    }
    std::vector<brdb::Session*> admin_ptrs;
    for (const brdb::Identity& admin : ids.admins) {
      admins.push_back(std::make_unique<brdb::Session>(admin, transport));
      admin_ptrs.push_back(admins.back().get());
    }
    client = std::make_unique<brdb::Session>(ids.clients[0], transport);
    return brdb::DeployContractOverSessions(
        admin_ptrs, brdb::WorkloadSchemaStatements()[0]);  // kv
  }
};

void MeasureOeSimpleTcp(const Options& opts, TcpEnv* env, Report* report) {
  std::vector<brdb::DatabaseNode*> nodes = env->Nodes();
  brdb::DatabaseNode* node0 = nodes[0];
  brdb::Session* client = env->client.get();
  const brdb::TransportCounters& counters = env->transport->counters();
  DecisionTracker tracker(env->transport.get(), nodes.size(),
                          env->procs[0]->name());

  uint64_t next_key = 0;
  auto make = [&](size_t) {
    uint64_t k = next_key++;
    return Call{"simple",
                {Value::Int(static_cast<int64_t>(k)),
                 Value::Text(Payload(k, opts.seed, 80))},
                0};
  };

  // Warm-up (discarded), then the measured fixed-rate window. The traced
  // run measures an untraced window first, for the tracing overhead.
  int phase = 0;
  RunOpenLoop(client, &tracker, kFixedRate, NowUs() + 1000,
              static_cast<size_t>(kFixedRate * kWarmupSeconds), phase, make);
  WindowRun untraced =
      RunWindow(client, &tracker, ++phase, kFixedRate, opts.seconds, make, {});
  WindowRun window = untraced;
  BlockPoller poller(env->orderer->ordering(), node0);
  uint64_t frames = 0, bytes = 0;
  if (opts.trace) {
    node0->metrics()->Reset();
    NodeCounterBase sql_base = ReadSqlCounters(node0);
    uint64_t frames0 = counters.frames_sent + counters.frames_received;
    uint64_t bytes0 = counters.bytes_sent + counters.bytes_received;
    poller.Start();
    window = RunWindow(client, &tracker, ++phase, kFixedRate, opts.seconds,
                       make, [&] {
                         ReportNodeCounters(node0, sql_base, report);
                         frames = counters.frames_sent +
                                  counters.frames_received - frames0;
                         bytes = counters.bytes_sent +
                                 counters.bytes_received - bytes0;
                       });
    poller.Stop();
    ReportTracingOverhead(untraced, window, report);
  }
  ReportCommitMetrics(window.stats, report);
  report->Info("host.steal_pct", window.steal_pct);
  ReportProcessMetrics(window, report);

  // The untraced run goes on with the rate search above the fixed rate and
  // closed-loop range reads over TCP (query_* for this workload).
  QueryLoop reads;
  auto settle = [&] {
    tracker.WaitDecided(NowUs() + kDrainUs);
    WaitAllAtHeight(nodes, env->orderer->ordering(), NowUs() + kDrainUs);
  };
  if (!opts.trace) {
    RunRateSearch(client, &tracker, &phase, untraced.stats.AsStep(kFixedRate),
                  kSearchRates, kStepSeconds, make, report);
    settle();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    std::mt19937_64 rng(opts.seed ^ 0x5eedULL);
    reads = RunQueryLoopFor(kReadSeconds, [&](size_t) {
      int64_t lo = static_cast<int64_t>(rng() % (next_key - kReadRange));
      return client->QueryOn(
          0, "SELECT COUNT(*) FROM kv WHERE k >= $1 AND k < $2",
          {Value::Int(lo), Value::Int(lo + kReadRange)});
    });
    reads.ReportTo("1000-key range count of kv on node 0 over TCP, idle "
                   "network",
                   report);
  }

  // Drain everything, then the correctness gates.
  tracker.WaitDecided(NowUs() + kDrainUs);
  uint64_t committed_total = 0;
  uint64_t attempted = reads.attempted();
  uint64_t failed = reads.errors;
  for (const TxnRecord& r : tracker.Records()) {
    committed_total += r.committed;
    if (r.phase == 0) continue;
    ++attempted;
    failed += !r.committed;
  }
  if (!WaitAllAtHeight(nodes, env->orderer->ordering(), NowUs() + kDrainUs)) {
    report->Fail("nodes did not reach the orderer's height");
  }
  CheckAgreement(nodes, report);
  CheckRowCount(nodes, client->name(), "kv", committed_total, report);
  report->Count(attempted, failed);

  if (opts.trace) {
    double txns = static_cast<double>(std::max<size_t>(1, window.landed()));
    report->Metric("network.frames_per_txn",
                   static_cast<double>(frames) / txns, "frames", 0,
                   "client TcpTransport, both directions");
    report->Metric("network.bytes_per_txn", static_cast<double>(bytes) / txns,
                   "B", 0, "client TcpTransport, both directions");
    uint64_t dropped = env->orderer->server()->frames_dropped();
    for (auto& p : env->procs) dropped += p->server()->frames_dropped();
    report->Metric("network.frames_dropped", static_cast<double>(dropped),
                   "count", 0, "TcpServer one-way frames dropped");
    ReportTracedLayers(node0, *env->ids.registry, env->ids.clients[0], window,
                       poller, opts, report);
    ReplayQueryPaths(node0, client->name(),
                     {{"SELECT COUNT(*) FROM kv WHERE k >= $1",
                       {Value::Int(static_cast<int64_t>(next_key) - 2000)}},
                      {"SELECT COUNT(*) FROM kv", {}}},
                     report);
  }
}

}  // namespace

void RunOeSimpleTcp(const Options& opts, Report* report) {
  report->Info("config", "order-then-execute, 3 orgs + 1 Kafka orderer, "
                         "loopback TCP (OrdererProcess + NodeProcess), "
                         "block size 100, timeout 100 ms, node defaults");
  report->Info("load", "open loop, one Session, simple contract at 1600 tps; "
                       "rate search 2000..6000 tps in 1 s steps");
  report->Info("network", "loopback TCP (TcpTransport, TcpServer)");

  RunWithSetups<TcpEnv>(
      kSetupRepeats,
      [&](int i, Status* st) -> std::unique_ptr<TcpEnv> {
        return TcpEnv::Create(opts.work_dir + "/setup" + std::to_string(i),
                              st);
      },
      [&](TcpEnv* env) { MeasureOeSimpleTcp(opts, env, report); }, report);
}

}  // namespace brdbbench
