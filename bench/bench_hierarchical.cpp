// Section 5 benchmarks:
//   * distance scaling of RecursiveHTHC across k (Prop. 5.12 / 5.13 families);
//   * Lemma 5.16: no window of a backbone is crowded with way-points;
//   * Lemma 5.18: consecutive light way-points sit within 2n^{1/k};
//   * the deep-nest family: deterministic volume vs randomized waypoint
//     volume (the D-VOL / R-VOL separation for k >= 3).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "labels/hierarchy.hpp"
#include "lcl/adversary/hthc_adversary.hpp"
#include "lcl/algorithms/hthc_algos.hpp"
#include "lcl/algorithms/local_view.hpp"

namespace volcal::bench {
namespace {

using Src = InstanceSource<ColoredTreeLabeling>;

void distance_table(JsonReport& report) {
  auto ph = report.phase("distance");
  print_header("§5 — RecursiveHTHC distance on balanced instances (Θ(n^{1/k}))");
  stats::Table table({"k", "n", "backbone", "max distance", "window 2·n^{1/k}"});
  for (int k : {1, 2, 3, 4}) {
    Curve curve;
    const std::vector<NodeIndex> bs = k == 1   ? std::vector<NodeIndex>{512, 2048, 8192}
                                      : k == 2 ? std::vector<NodeIndex>{64, 192, 512}
                                      : k == 3 ? std::vector<NodeIndex>{16, 36, 72}
                                               : std::vector<NodeIndex>{8, 14, 24};
    for (NodeIndex b : bs) {
      auto inst = make_hierarchical_instance(k, b, 3);
      auto cfg = HthcConfig::make(k, inst.node_count(), false, nullptr);
      auto starts = sampled_starts(inst.node_count(), 16);
      auto cost = measure(inst.graph, inst.ids, starts, [&](Execution& exec) {
        Src src(inst, exec);
        HthcSolver<Src> solver(src, cfg);
        solver.solve();
      });
      curve.add(static_cast<double>(inst.node_count()),
                static_cast<double>(cost.max_distance));
      table.add_row({fmt_int(k), fmt_int(inst.node_count()), fmt_int(b),
                     fmt_int(cost.max_distance), fmt_int(cfg.window)});
    }
    std::printf("k=%d fitted: %s\n", k, curve.fitted().c_str());
    report.add("Hierarchical-THC(" + std::to_string(k) + ") / D-DIST", curve,
               "Θ(n^{1/" + std::to_string(k) + "})");
  }
  table.print();
}

void waypoint_lemmas_table(JsonReport& report) {
  auto ph = report.phase("waypoint-lemmas");
  print_header("§5 — way-point statistics (Lemmas 5.16 and 5.18)");
  stats::Table table({"n", "p = c·log n / n^{1/k}", "max way-points per window",
                      "8·c·log2 n bound", "max light-waypoint gap", "2·n^{1/k} bound"});
  const int k = 2;
  Curve crowd_c, gap_c;
  for (NodeIndex b : {256, 512, 1024}) {
    // Deep top over light floors: the regime Lemma 5.18 addresses.
    auto inst = make_hierarchical_instance_lens({6, b}, 5);
    const auto n = inst.node_count();
    RandomTape tape(inst.ids, 23);
    auto cfg = HthcConfig::make(k, n, true, &tape);
    const double p = cfg.waypoint_p(n);
    Hierarchy h(inst.graph, inst.labels.tree, k + 1);
    // Way-point indicator uses each node's own tape word at the reserved
    // offset, exactly as the solver does.
    auto is_waypoint = [&](NodeIndex v) {
      return tape.unit(v, v, cfg.waypoint_bit_base) < p;
    };
    std::int64_t max_per_window = 0, max_gap = 0;
    for (const auto& bb : h.backbones()) {
      if (bb.level != 2) continue;
      const auto len = static_cast<std::int64_t>(bb.nodes.size());
      std::vector<std::int64_t> prefix(len + 1, 0);
      std::int64_t last_light = -1;
      for (std::int64_t i = 0; i < len; ++i) {
        const bool wp = is_waypoint(bb.nodes[i]);
        prefix[i + 1] = prefix[i] + (wp ? 1 : 0);
        if (wp) {  // all floors are light here
          max_gap = std::max(max_gap, i - last_light);
          last_light = i;
        }
      }
      max_gap = std::max(max_gap, len - 1 - last_light);
      const std::int64_t window = std::min(len, cfg.window);
      for (std::int64_t i = 0; i + window <= len; ++i) {
        max_per_window = std::max(max_per_window, prefix[i + window] - prefix[i]);
      }
    }
    const double crowd_bound = 8 * cfg.waypoint_c * std::log2(static_cast<double>(n));
    char pbuf[32], cbuf[32];
    std::snprintf(pbuf, sizeof pbuf, "%.3f", p);
    std::snprintf(cbuf, sizeof cbuf, "%.0f", crowd_bound);
    table.add_row({fmt_int(n), pbuf, fmt_int(max_per_window), cbuf, fmt_int(max_gap),
                   fmt_int(cfg.window)});
    crowd_c.add(static_cast<double>(n), static_cast<double>(max_per_window));
    gap_c.add(static_cast<double>(n), static_cast<double>(max_gap));
  }
  table.print();
  report.add("Waypoints / max per window", crowd_c, "O(log n) (Lem. 5.16)");
  report.add("Waypoints / max light gap", gap_c, "<= 2*n^{1/k} (Lem. 5.18)");
}

void deep_nest_table(JsonReport& report) {
  auto ph = report.phase("deep-nest");
  print_header("§5 — deep-nest family: deterministic vs randomized volume");
  stats::Table table(
      {"k", "n", "det volume (mid level k-1)", "rnd volume", "det/rnd", "n^{1/k}"});
  for (int k : {3, 4}) {
    Curve det_c, rnd_c;
    const std::vector<NodeIndex> bs =
        k == 3 ? std::vector<NodeIndex>{400, 700, 1100} : std::vector<NodeIndex>{64, 100, 140};
    for (NodeIndex b : bs) {
      std::vector<NodeIndex> lens(static_cast<std::size_t>(k), b);
      lens.back() = 3;
      auto inst = make_hierarchical_instance_lens(lens, 5);
      const auto n = inst.node_count();
      RandomTape tape(inst.ids, 29);
      auto det_cfg = HthcConfig::make(k, n, false, nullptr);
      auto rnd_cfg = HthcConfig::make(k, n, true, &tape, /*c=*/0.5);
      Hierarchy h(inst.graph, inst.labels.tree, k + 1);
      NodeIndex start = kNoNode;
      for (const auto& bb : h.backbones()) {
        if (bb.level == k - 1) {
          start = bb.nodes[bb.nodes.size() / 2];
          break;
        }
      }
      std::int64_t det_vol = 0, rnd_vol = 0;
      {
        Execution exec(inst.graph, inst.ids, start);
        Src src(inst, exec);
        HthcSolver<Src> solver(src, det_cfg);
        solver.solve_at(start);
        det_vol = exec.volume();
      }
      {
        Execution exec(inst.graph, inst.ids, start);
        Src src(inst, exec);
        HthcSolver<Src> solver(src, rnd_cfg);
        solver.solve_at(start);
        rnd_vol = exec.volume();
      }
      char ratio[32], root[32];
      std::snprintf(ratio, sizeof ratio, "%.1fx",
                    static_cast<double>(det_vol) / std::max<std::int64_t>(rnd_vol, 1));
      std::snprintf(root, sizeof root, "%.0f",
                    std::pow(static_cast<double>(n), 1.0 / k));
      table.add_row({fmt_int(k), fmt_int(n), fmt_int(det_vol), fmt_int(rnd_vol), ratio,
                     root});
      det_c.add(static_cast<double>(n), static_cast<double>(det_vol));
      rnd_c.add(static_cast<double>(n), static_cast<double>(rnd_vol));
    }
    report.add("DeepNest(k=" + std::to_string(k) + ") / D-VOL", det_c, "Ω̃(n) (Prop. 5.20)");
    report.add("DeepNest(k=" + std::to_string(k) + ") / R-VOL", rnd_c,
               "Θ̃(n^{1/" + std::to_string(k) + "})");
  }
  table.print();
  std::printf(
      "\nOn nested just-deep backbones the deterministic scan pays a full\n"
      "floor walk per scanned node while the waypoint scan recurses only at\n"
      "sampled nodes — the executable content of the D-VOL vs R-VOL row of\n"
      "Table 1.  The fully adversarial Ω̃(n) bound is Prop. 5.20.\n");
}

void adversary_table(JsonReport& report) {
  auto ph = report.phase("adversary");
  print_header("§5 — Prop. 5.20 adversary: deterministic candidates vs budgets");
  stats::Table table({"candidate", "k", "n", "budget", "outcome", "level", "sims"});
  struct Candidate {
    const char* name;
    HthcCandidate fn;
  };
  RandomTape tape(IdAssignment::sequential(200000), 11);
  const Candidate candidates[] = {
      {"always D", [](HthcAdversarySource&) { return ThcColor::D; }},
      {"always X", [](HthcAdversarySource&) { return ThcColor::X; }},
      {"echo χ_in",
       [](HthcAdversarySource& s) { return to_thc(s.color(s.start())); }},
      {"RecursiveHTHC (Alg. 2)",
       [](HthcAdversarySource& s) {
         auto cfg = HthcConfig::make(2, s.n(), false, nullptr);
         HthcSolver<HthcAdversarySource> solver(s, cfg);
         return solver.solve();
       }},
      {"waypoint solver (coins fixed first)",
       [&tape](HthcAdversarySource& s) {
         auto cfg = HthcConfig::make(2, s.n(), true, &tape, 0.5);
         HthcSolver<HthcAdversarySource> solver(s, cfg);
         return solver.solve();
       }},
  };
  for (const auto& cand : candidates) {
    for (int k : {2, 3}) {
      const std::int64_t n = 60000;
      auto result = duel_hthc_adversary(cand.fn, k, n, n / 3);
      std::string outcome = result.exceeded_budget
                                ? "needs > n/3 volume (consistent with Ω̃(n))"
                                : (result.defeated ? "DEFEATED: " + result.verdict
                                                   : "survived (!)");
      if (outcome.size() > 72) outcome = outcome.substr(0, 69) + "...";
      table.add_row({cand.name, fmt_int(k), fmt_int(n), fmt_int(n / 3), outcome,
                     result.defeated ? fmt_int(result.defeat_level) : "-",
                     fmt_int(result.simulations)});
    }
  }
  table.print();
  std::printf(
      "\nThe adversary convicts every strategy that answers within the budget\n"
      "and starves the rest — including the paper's own Alg. 2, whose scans\n"
      "recursively explore a fresh deep component per step here.  The fixed-\n"
      "coin waypoint solver is defeated too: Prop. 5.14's whp guarantee is\n"
      "per-instance, not against a coin-aware adversary.\n");
}

void BM_RecursiveHTHC(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto inst = make_hierarchical_instance(k, k == 2 ? 256 : 32, 3);
  auto cfg = HthcConfig::make(k, inst.node_count(), false, nullptr);
  std::uint64_t i = 0;
  for (auto _ : state) {
    Execution exec(inst.graph, inst.ids, static_cast<NodeIndex>(i++ % 97));
    Src src(inst, exec);
    HthcSolver<Src> solver(src, cfg);
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetLabel("n=" + std::to_string(inst.node_count()));
}
BENCHMARK(BM_RecursiveHTHC)->Arg(2)->Arg(3);

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(&argc, argv, "bench_hierarchical");
  // google-benchmark takes its own flags; anything left over is a typo or a
  // removed flag, rejected before any table runs.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  volcal::bench::Observer::install(args, "bench_hierarchical");
  volcal::bench::JsonReport report("bench_hierarchical");
  volcal::bench::distance_table(report);
  volcal::bench::waypoint_lemmas_table(report);
  volcal::bench::deep_nest_table(report);
  volcal::bench::adversary_table(report);
  report.write_file(args.json);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
