// brdbbench: the repository's benchmark. One binary, three workloads:
//
//   brdbbench --workload <oe-simple-tcp|eop-join|htap-orders> --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--source-rev REV]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload untraced and then traced, and adds the per-layer metrics, the
// tracing overhead and node 0's "where did the block go" table. The last
// line of stdout is one JSON object with every metric measured; a failed
// correctness gate exits 1 and prints no metrics. brdbbench/run.py builds
// it and keeps the metrics BENCHMARK.json declares.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

using brdbbench::Options;
using brdbbench::Report;

int Usage() {
  std::fprintf(stderr,
               "usage: brdbbench --workload oe-simple-tcp|eop-join|"
               "htap-orders --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--source-rev REV]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--source-rev") {
      opts.source_rev = value;
    } else {
      return Usage();
    }
  }
  if (opts.workload.empty() || opts.work_dir.empty() || opts.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opts.work_dir.c_str());
    return 2;
  }
  brdb::SetLogLevel(brdb::LogLevel::kError);

  Report report;
  brdbbench::AddProvenance(opts, &report);
  if (opts.workload == "oe-simple-tcp") {
    brdbbench::RunOeSimpleTcp(opts, &report);
  } else if (opts.workload == "eop-join") {
    brdbbench::RunEopJoin(opts, &report);
  } else if (opts.workload == "htap-orders") {
    brdbbench::RunHtapOrders(opts, &report);
  } else {
    return Usage();
  }
  return report.Print();
}
