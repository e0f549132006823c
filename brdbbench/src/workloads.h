// The benchmark's three workloads. Each sets the system up (several times,
// for setup_s), runs its measured window through the public client API,
// checks its outputs, and fills a Report; with Options::trace it also
// records spans, polls the orderer and node 0, and replays node 0's
// committed blocks through each layer alone.
#ifndef BRDBBENCH_WORKLOADS_H_
#define BRDBBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "core/blockchain_network.h"
#include "harness.h"

namespace brdbbench {

/// Fixed configuration shared by every workload.
inline constexpr size_t kBlockSize = 100;
inline constexpr int64_t kBlockTimeoutUs = 100'000;  // paper's 1 s, scaled
inline constexpr int kSetupRepeats = 3;              // setup_s = median
inline constexpr double kWarmupSeconds = 1.0;        // discarded load

void RunOeSimpleTcp(const Options& opts, Report* report);
void RunEopJoin(const Options& opts, Report* report);
void RunHtapOrders(const Options& opts, Report* report);

/// An in-process network (BlockchainNetwork over the SimNetwork) with the
/// workload contracts, the given schema deployed through the governance
/// flow, and one client session.
struct SimEnv {
  std::unique_ptr<brdb::BlockchainNetwork> net;
  brdb::Session* client = nullptr;

  ~SimEnv() {
    if (net) net->Stop();
  }
  std::vector<brdb::DatabaseNode*> Nodes() const;
};

/// Fixed options of the in-process workloads: Kafka ordering, block size
/// 100, 100 ms timeout, LAN profile, file-backed stores under `dir`, every
/// other option at its default.
brdb::NetworkOptions SimOptions(brdb::TransactionFlow flow,
                                std::vector<std::string> orgs,
                                const std::string& dir);
std::unique_ptr<SimEnv> CreateSimEnv(const brdb::NetworkOptions& options,
                                     const std::vector<std::string>& schema,
                                     Status* status);

/// Seed `customers` customers (round-robin regions) and `orders` orders
/// (order i belongs to customer i % customers; seeded amounts 10..99)
/// through seed_customer / seed_order, one block's worth at a time, each
/// committed on every node before the next is submitted.
Status SeedJoinTables(brdb::Session* seeder, int customers, int orders,
                      uint64_t seed);

/// A seeded printable payload of `len` bytes.
std::string Payload(uint64_t key, uint64_t seed, size_t len);

/// The analyst's query mix over customers/orders (htap-orders; replayed on
/// eop-join): fig6 core, fig7 core, recent-window aggregate.
const std::vector<std::string>& AnalyticQueries();
/// Seeded parameters for query `q` given the highest order id submitted.
std::vector<brdb::Value> AnalyticParams(size_t q, uint64_t r,
                                        int64_t order_frontier);

/// Closed-loop replay of `queries` on node 0 at its current (quiesced)
/// snapshot, on the columnar (kDefault) and row-store (kForceRow) paths:
/// sql.columnar_query_ms, sql.row_store_query_ms and
/// storage.zone_map_pruned_per_query.
void ReplayQueryPaths(
    brdb::DatabaseNode* node, const std::string& user,
    const std::vector<std::pair<std::string, std::vector<brdb::Value>>>&
        queries,
    Report* report);

/// Adds cpu_ms_per_txn and peak_rss_mb.
void ReportProcessMetrics(const WindowRun& window, Report* report);

}  // namespace brdbbench

#endif  // BRDBBENCH_WORKLOADS_H_
