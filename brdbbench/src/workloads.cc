#include "workloads.h"

#include <cstdio>
#include <random>

#include "contracts/workload_contracts.h"

namespace brdbbench {

using brdb::Value;

std::vector<brdb::DatabaseNode*> SimEnv::Nodes() const {
  std::vector<brdb::DatabaseNode*> out;
  for (size_t i = 0; i < net->num_nodes(); ++i) out.push_back(net->node(i));
  return out;
}

brdb::NetworkOptions SimOptions(brdb::TransactionFlow flow,
                                std::vector<std::string> orgs,
                                const std::string& dir) {
  brdb::NetworkOptions o;
  o.orgs = std::move(orgs);
  o.flow = flow;
  o.orderer_type = brdb::OrdererType::kKafka;
  o.orderer_config.block_size = kBlockSize;
  o.orderer_config.block_timeout_us = kBlockTimeoutUs;
  o.profile = brdb::NetworkProfile::Lan();
  o.block_store_dir = dir;
  return o;
}

std::unique_ptr<SimEnv> CreateSimEnv(const brdb::NetworkOptions& options,
                                     const std::vector<std::string>& schema,
                                     Status* status) {
  auto env = std::make_unique<SimEnv>();
  env->net = brdb::BlockchainNetwork::Create(options);
  for (brdb::DatabaseNode* n : env->Nodes()) {
    *status = brdb::RegisterWorkloadContracts(n->contracts());
    if (!status->ok()) return nullptr;
  }
  *status = env->net->Start();
  if (!status->ok()) return nullptr;
  for (const std::string& stmt : schema) {
    *status = env->net->DeployContract(stmt);
    if (!status->ok()) return nullptr;
  }
  env->client = env->net->CreateSession(options.orgs[0], "client");
  return env;
}

Status SeedJoinTables(brdb::Session* seeder, int customers, int orders,
                      uint64_t seed) {
  static const char* kRegions[] = {"emea", "amer", "apac", "latam"};
  std::mt19937_64 rng(seed ^ 0x0dde5ULL);
  std::vector<brdb::Invocation> calls;
  for (int i = 0; i < customers; ++i) {
    calls.push_back({"seed_customer",
                     {Value::Int(i), Value::Text(kRegions[i % 4])}});
  }
  for (int i = 0; i < orders; ++i) {
    calls.push_back({"seed_order",
                     {Value::Int(i), Value::Int(i % customers),
                      Value::Int(10 + static_cast<int64_t>(rng() % 90))}});
  }
  // One block's worth at a time, each committed on every node before the
  // next is sent. A burst of all of them at once can stall an EOP network:
  // a node that falls behind fills its executor pool with tasks waiting for
  // their snapshot height (see README.md, "Known defect").
  for (size_t i = 0; i < calls.size(); i += kBlockSize) {
    std::vector<brdb::Invocation> batch(
        calls.begin() + static_cast<long>(i),
        calls.begin() +
            static_cast<long>(std::min(calls.size(), i + kBlockSize)));
    std::vector<brdb::TxnHandle> handles = seeder->SubmitBatch(std::move(batch));
    for (brdb::TxnHandle& h : handles) {
      BRDB_RETURN_NOT_OK(h.submit_status());
      BRDB_RETURN_NOT_OK(h.WaitAllNodes(60'000'000));
    }
  }
  return Status::OK();
}

std::string Payload(uint64_t key, uint64_t seed, size_t len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  uint64_t x = key * 0x9E3779B97F4A7C15ULL ^ seed;
  std::string out(len, ' ');
  for (size_t i = 0; i < len; ++i) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    out[i] = kAlphabet[x % (sizeof(kAlphabet) - 1)];
  }
  return out;
}

const std::vector<std::string>& AnalyticQueries() {
  static const std::vector<std::string> kQueries = {
      // fig6 core: join + SUM for one region over the full history.
      "SELECT COALESCE(SUM(o.amount), 0) FROM orders o "
      "JOIN customers c ON o.cust = c.cust_id WHERE c.region = $1",
      // fig7 core: group by region + top-1 over a customer range.
      "SELECT c.region, SUM(o.amount) AS total FROM orders o "
      "JOIN customers c ON o.cust = c.cust_id "
      "WHERE c.cust_id >= $1 AND c.cust_id <= $2 "
      "GROUP BY c.region ORDER BY total DESC, c.region ASC LIMIT 1",
      // Recent window: the row-store tail plus zone-map-pruned segments.
      "SELECT COUNT(*), COALESCE(SUM(o.amount), 0) FROM orders o "
      "WHERE o.order_id >= $1",
  };
  return kQueries;
}

std::vector<Value> AnalyticParams(size_t q, uint64_t r,
                                  int64_t order_frontier) {
  static const char* kRegions[] = {"emea", "amer", "apac", "latam"};
  switch (q) {
    case 0:
      return {Value::Text(kRegions[r % 4])};
    case 1: {
      int64_t lo = static_cast<int64_t>(r % 50);
      return {Value::Int(lo), Value::Int(lo + 49)};
    }
    default:
      return {Value::Int(order_frontier - 2000)};
  }
}

void ReplayQueryPaths(
    brdb::DatabaseNode* node, const std::string& user,
    const std::vector<std::pair<std::string, std::vector<Value>>>& queries,
    Report* report) {
  constexpr int kRounds = 10;
  std::vector<double> col_medians, row_medians;
  uint64_t pruned0 = node->metrics()->Snapshot().zone_map_pruned_segments;
  size_t columnar_runs = 0;
  for (const auto& [sql, params] : queries) {
    CheckQueryParity(node, user, sql, params, report);
    std::vector<double> col, row;
    for (int i = 0; i < kRounds; ++i) {
      for (brdb::QueryPath path :
           {brdb::QueryPath::kDefault, brdb::QueryPath::kForceRow}) {
        int64_t t0 = NowUs();
        auto r = node->Query(user, sql, params, path);
        double ms = static_cast<double>(NowUs() - t0) / 1000.0;
        if (!r.ok()) {
          report->Fail("replayed query failed: " + sql + ": " +
                       r.status().ToString());
          return;
        }
        if (path == brdb::QueryPath::kDefault) {
          col.push_back(ms);
          ++columnar_runs;
        } else {
          row.push_back(ms);
        }
      }
    }
    col_medians.push_back(Median(col));
    row_medians.push_back(Median(row));
  }
  uint64_t pruned =
      node->metrics()->Snapshot().zone_map_pruned_segments - pruned0;
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  };
  report->Metric("sql.columnar_query_ms", mean(col_medians), "ms",
                 columnar_runs, "mean over queries of the median, kDefault");
  report->Metric("sql.row_store_query_ms", mean(row_medians), "ms",
                 columnar_runs, "same queries, kForceRow");
  report->Metric("storage.zone_map_pruned_per_query",
                 static_cast<double>(pruned) /
                     static_cast<double>(std::max<size_t>(1, columnar_runs)),
                 "segments", columnar_runs);
}

void ReportProcessMetrics(const WindowRun& window, Report* report) {
  report->Metric("cpu_ms_per_txn", window.CpuMsPerTxn(), "ms",
                 window.landed(),
                 "process user+sys CPU per second (median of " +
                     std::to_string(kCpuSlices) +
                     " slices) over commit_tps");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace brdbbench
