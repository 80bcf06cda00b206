// The three benchmark workloads.  Each fills a Report with every end-to-end
// metric (untraced run) or every per-layer metric it has (traced run), and a
// Tally of the operations it attempted and the ones that failed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core.hpp"

namespace volbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // length of the measured phase
  bool trace = false;
  std::string out_dir = ".bench_out";  // snapshots, sockets, span files
};

struct Outcome {
  Report report;
  Tally tally;
  SpanLog spans{false};
};

// End-to-end metric names, in result-line order (BENCHMARK.json end_to_end).
inline const std::vector<std::string> kEndToEnd = {"setup_s", "rss_bytes_per_node"};

// Per-layer metric names and units, in result-line order (BENCHMARK.json
// per_layer); a traced run reports 0 for layers its workload does not use.
std::vector<std::pair<std::string, std::string>> per_layer_metrics();

void run_sweep_table1(const Options& opt, Outcome& out);
void run_serve_ball_zipf(const Options& opt, Outcome& out);
void run_serve_leaf_churn(const Options& opt, Outcome& out);

}  // namespace volbench
