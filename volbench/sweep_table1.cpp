// sweep-table1: every registry family on a doubling n-sweep up to ~2^16
// nodes; per pass, a whole-graph sweep and verify at every size and a growth
// fit per family, then single-node queries on each family's largest instance.
#include <cstdio>
#include <span>

#include "pipeline.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace volbench {
namespace {

constexpr std::int64_t kMaxTarget = 65536;
constexpr int kSetupReps = 3;
constexpr int kQueriesPerFamily = 300;

}  // namespace

void run_sweep_table1(const Options& opt, Outcome& out) {
  const auto& entries = volcal::ProblemRegistry::global().entries();
  SpanLog& spans = out.spans;
  SpanLog off(false);

  // Set-up: generate every family's sweep, kSetupReps times (the last set is
  // kept), and once more after every pass so the repeats span the run.
  StepBest setup;
  std::vector<FamilySweep> families;
  const auto generate_all = [&](int rep, bool keep) {
    std::vector<double> step_s;
    SpanLog::Scope top(spans, "setup", kNoSpan, static_cast<std::uint64_t>(rep));
    for (const volcal::RegistryEntry& e : entries) {
      FamilySweep f = generate_family(e, kMaxTarget, opt.seed, spans, top.id(), &step_s, keep);
      if (keep) families.push_back(std::move(f));
    }
    setup.add(step_s);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    families.clear();
    generate_all(rep, true);
  }
  std::int64_t max_n = 0;
  for (const FamilySweep& f : families) max_n = std::max<std::int64_t>(max_n, f.top().node_count());
  std::printf("facts: workload=sweep-table1 families=%zu max_n=%lld threads=%d "
              "cache=off backend=batched queries_per_family=%d\n",
              families.size(), static_cast<long long>(max_n), kSweepThreads,
              kQueriesPerFamily);

  // Measured passes.  In trace mode odd passes record spans and even passes
  // do not, so the pipeline time of the two kinds gives the tracing overhead.
  const volcal::ParallelRunner runner = pinned_runner(kSweepThreads);
  const volcal::ParallelRunner single = pinned_runner(1);
  PipelineRuns runs;
  std::vector<double> query_us;
  const std::int64_t begin = now_ns();
  const auto deadline = begin + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (int pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    SpanLog& log = traced ? spans : off;
    const std::int64_t top = log.open("pass", kNoSpan, static_cast<std::uint64_t>(pass));
    PassResult r = run_pass(families, runner, log, top, static_cast<std::uint64_t>(pass),
                            &out.tally);
    for (std::size_t f = 0; f < families.size(); ++f) {
      sample_queries(families[f], r.top_outputs[f], single, kQueriesPerFamily,
                     volcal::mix64(opt.seed, static_cast<std::uint64_t>(pass), f), &query_us,
                     log, top, &out.tally);
    }
    log.close(top);
    if (pass == 0) {
      for (std::size_t f = 0; f < families.size(); ++f) {
        std::printf("  %-14s n=%-7lld volume fit %s\n", families[f].entry->name.c_str(),
                    static_cast<long long>(families[f].top().node_count()), r.fits[f].c_str());
      }
    }
    std::printf("  pass %d%s: pipeline %.3f s, sweeps %.3f s\n", pass, traced ? " (traced)" : "",
                r.pipeline_s, r.sweep_s);
    runs.add(std::move(r), traced, &out.tally);
    generate_all(kSetupReps + pass, false);
    const std::int64_t now = now_ns();
    const double mean_pass = static_cast<double>(now - begin) / (pass + 1);
    if (pass >= 1 && now + mean_pass / 2 >= deadline) break;
  }

  out.report.add("setup_s", "s", setup.total(), setup.repeats());
  out.report.add("pipeline_s", "s", runs.best_steps.total(), runs.best_steps.repeats());
  double query_total = 0.0;
  for (const double q : query_us) query_total += q;
  out.report.add("query_mean_us", "us", query_total / static_cast<double>(query_us.size()),
                 static_cast<std::int64_t>(query_us.size()));
  out.report.add("query_p50_us", "us", percentile(query_us, 0.50),
                 static_cast<std::int64_t>(query_us.size()));
  out.report.add("query_p99_us", "us", percentile(query_us, 0.99),
                 static_cast<std::int64_t>(query_us.size()));
  out.report.add("throughput_qps", "1/s",
                 static_cast<double>(runs.first.starts) / best_time(runs.plain_sweep_s),
                 static_cast<std::int64_t>(runs.plain_sweep_s.size()));
  out.report.add("rss_bytes_per_node", "B/node", peak_rss_bytes() / static_cast<double>(max_n),
                 1);
  if (!opt.trace) return;

  report_pipeline_layers(families, runs, spans, static_cast<int>(setup.repeats()), out.report);

  // 1-thread against 4-thread whole-graph sweeps of every family's largest
  // instance; the outputs must agree bit for bit.
  double t1 = 0.0;
  double t4 = 0.0;
  for (const FamilySweep& f : families) {
    const volcal::ErasedInstance& inst = f.top();
    const auto solver = [&inst](volcal::Execution& e) { return inst.solve(e); };
    std::int64_t t = now_ns();
    const auto one = single.run_planned(inst.graph(), inst.ids(), std::span(f.starts.back()),
                                        f.entry->plan, solver);
    t1 += static_cast<double>(now_ns() - t);
    t = now_ns();
    const auto four = runner.run_planned(inst.graph(), inst.ids(), std::span(f.starts.back()),
                                         f.entry->plan, solver);
    t4 += static_cast<double>(now_ns() - t);
    ++out.tally.attempted;
    if (one.output != four.output || !same_costs(one.stats, four.stats)) {
      ++out.tally.nondeterministic;
    }
  }
  out.report.add("runtime.speedup_vs_1thread", "x", t1 / t4,
                 static_cast<std::int64_t>(families.size()));
}

}  // namespace volbench
