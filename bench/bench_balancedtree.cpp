// Section 4 / Figure 5 benchmarks:
//   * the disjointness embedding: g(E(a,b)) = disj(a,b), per-query
//     communication accounting (Thm. 2.9 machinery), and the Ω(N) bits any
//     solver pays;
//   * fooling-pair duels: budget-limited deterministic algorithms are fooled;
//   * solver cost curves (distance log n, volume n).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "comm/disjointness.hpp"
#include "labels/generators.hpp"
#include "lcl/algorithms/balanced_tree_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "util/hash.hpp"

namespace volcal::bench {
namespace {

using Src = InstanceSource<BalancedTreeLabeling>;

void embedding_table(JsonReport& report) {
  auto ph = report.phase("embedding");
  print_header("§4 / Fig. 5 — DISJ embedding: g(E(a,b)) vs disj(a,b) and bits paid");
  stats::Table table({"depth", "N", "instances", "g = disj everywhere", "solver bits (max)",
                      "2N floor"});
  Curve bits_c;  // abscissa: N = 2^(depth-1), the DISJ instance size
  for (int depth : {4, 6, 8, 10}) {
    const std::int64_t big_n = std::int64_t{1} << (depth - 1);
    bool all_match = true;
    std::int64_t max_bits = 0;
    const int trials = 12;
    for (int t = 0; t < trials; ++t) {
      std::vector<std::uint8_t> a(big_n), b(big_n);
      for (std::int64_t i = 0; i < big_n; ++i) {
        a[i] = mix64(11, t, i) & 1;
        b[i] = mix64(13, t, i) & 1;
      }
      auto emb = make_disj_embedding(depth, a, b);
      CommAccountant acc(emb);
      Execution exec(emb.instance.graph, emb.instance.ids, emb.root);
      Src src(emb.instance, exec);
      const bool g = balancedtree_solve(src).beta == Balance::Balanced;
      all_match &= g == disj(a, b);
      max_bits = std::max(max_bits, acc.bits_for(exec));
    }
    table.add_row({fmt_int(depth), fmt_int(big_n), fmt_int(trials),
                   all_match ? "yes" : "NO", fmt_int(max_bits), fmt_int(2 * big_n)});
    bits_c.add(static_cast<double>(big_n), static_cast<double>(max_bits));
  }
  table.print();
  report.add("DISJ embedding / solver bits", bits_c, "Ω(N) (Thm. 2.10)");
  std::printf(
      "\nEvery query outside the leaf pairs costs 0 bits; each pair costs 2.\n"
      "Any algorithm answering DISJ must pay Ω(N) bits (Thm. 2.10), hence\n"
      "Ω(N) queries (Thm. 2.9): R-VOL(BalancedTree) = Ω(n).\n");
}

void fooling_table(JsonReport& report) {
  auto ph = report.phase("fooling");
  print_header("§4 — fooling-pair duels: budget-limited deterministic solvers fail");
  stats::Table table({"depth", "n", "budget", "outcome", "untouched pair"});
  RootedBtAlgorithm solver = [](const BalancedTreeInstance& inst, Execution& exec) {
    Src src(inst, exec);
    return balancedtree_solve(src);
  };
  for (int depth : {6, 8, 10}) {
    const std::int64_t n = (std::int64_t{1} << (depth + 1)) - 1;
    for (const std::int64_t budget : {n / 4, n / 2, std::int64_t{0}}) {
      auto result = duel_balancedtree_volume(solver, depth, budget);
      std::string outcome;
      if (result.algorithm_exceeded_budget) {
        outcome = "needs more volume (consistent with Ω(n))";
      } else if (result.fooled) {
        outcome = "FOOLED (same answer on E(0,0) and E(e_i,e_i))";
      } else {
        outcome = "survived (touched every pair)";
      }
      table.add_row({fmt_int(depth), fmt_int(n),
                     budget == 0 ? "unlimited" : fmt_int(budget), outcome,
                     result.pair_index >= 0 ? fmt_int(result.pair_index) : "-"});
    }
  }
  table.print();
}

void cost_table(JsonReport& report) {
  auto ph = report.phase("cost-curves");
  print_header("§4 — BalancedTree solver costs (Thm. 4.5 shape)");
  stats::Table table({"n", "max distance", "max volume", "log2(n)"});
  Curve dist, vol;
  for (int depth : {7, 9, 11, 13}) {
    auto inst = make_balanced_instance(depth);
    auto starts = sampled_starts(inst.node_count(), 12);
    auto cost = measure(inst.graph, inst.ids, starts, [&](Execution& exec) {
      Src src(inst, exec);
      balancedtree_solve(src);
    });
    dist.add(static_cast<double>(inst.node_count()),
             static_cast<double>(cost.max_distance));
    vol.add(static_cast<double>(inst.node_count()), static_cast<double>(cost.max_volume));
    char logn[32];
    std::snprintf(logn, sizeof logn, "%.1f",
                  std::log2(static_cast<double>(inst.node_count())));
    table.add_row({fmt_int(inst.node_count()), fmt_int(cost.max_distance),
                   fmt_int(cost.max_volume), logn});
  }
  table.print();
  std::printf("fitted: distance %s, volume %s\n", dist.fitted().c_str(),
              vol.fitted().c_str());
  report.add("BalancedTree / D-DIST", dist, "Θ(log n)");
  report.add("BalancedTree / D-VOL", vol, "Θ(n)");
}

void BM_BalancedSolveRoot(benchmark::State& state) {
  auto inst = make_balanced_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Execution exec(inst.graph, inst.ids, 0);
    Src src(inst, exec);
    benchmark::DoNotOptimize(balancedtree_solve(src));
  }
  state.SetLabel("n=" + std::to_string(inst.node_count()));
}
BENCHMARK(BM_BalancedSolveRoot)->Arg(8)->Arg(12);

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(&argc, argv, "bench_balancedtree");
  // google-benchmark takes its own flags; anything left over is a typo or a
  // removed flag, rejected before any table runs.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  volcal::bench::Observer::install(args, "bench_balancedtree");
  volcal::bench::JsonReport report("bench_balancedtree");
  volcal::bench::embedding_table(report);
  volcal::bench::fooling_table(report);
  volcal::bench::cost_table(report);
  report.write_file(args.json);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
