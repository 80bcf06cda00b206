// The per-layer metric list, shared by the benchmark program and its tests.
#include "lcl/registry.hpp"
#include "workloads.hpp"

namespace volbench {

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const volcal::RegistryEntry& e : volcal::ProblemRegistry::global().entries()) {
    out.emplace_back("labels.generate_s." + e.name, "s");
    out.emplace_back("lcl.verify_s." + e.name, "s");
    out.emplace_back("runtime.sweep_s." + e.name, "s");
  }
  const std::pair<const char*, const char*> fixed[] = {
      {"pipeline_s", "s"},
      {"throughput_qps", "1/s"},
      {"capacity_qps", "1/s"},
      {"query_mean_us", "us"},
      {"query_p50_us", "us"},
      {"query_p99_us", "us"},
      {"io.snapshot_save_s", "s"},
      {"io.snapshot_load_s", "s"},
      {"io.snapshot_bytes_per_node", "B/node"},
      {"runtime.starts_per_s", "1/s"},
      {"runtime.queries_per_s", "1/s"},
      {"runtime.total_queries", "count"},
      {"runtime.total_volume", "count"},
      {"runtime.worker_busy_frac_min", "frac"},
      {"runtime.speedup_vs_1thread", "x"},
      {"stats.fit_s", "s"},
      {"cache.hit_ratio", "frac"},
      {"cache.lookups", "count"},
      {"serve.wave_occupancy", "starts/wave"},
      {"serve.service_p50_us", "us"},
      {"serve.service_p99_us", "us"},
      {"serve.shed", "count"},
      {"serve.apply_mutation_p50_us", "us"},
      {"serve.apply_mutation_p99_us", "us"},
      {"update_p50_us", "us"},
      {"update_p99_us", "us"},
      {"transport.overhead_p50_us", "us"},
      {"transport.overhead_p99_us", "us"},
      {"load.gen_lag_p99_us", "us"},
      {"failed_frac", "frac"},
      {"trace.overhead_pipeline_s", "s"},
      {"trace.overhead_query_p50_us", "us"},
  };
  for (const auto& [name, unit] : fixed) out.emplace_back(name, unit);
  return out;
}

}  // namespace volbench
