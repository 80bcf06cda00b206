#include "pipeline.hpp"

#include <sys/resource.h>

#include <optional>
#include <span>

#include "util/hash.hpp"

namespace volbench {

using volcal::ErasedInstance;
using volcal::Execution;
using volcal::NodeIndex;

volcal::ParallelRunner pinned_runner(int threads) {
  volcal::ParallelRunner runner(threads, volcal::CacheConfig{volcal::CachePolicy::Off});
  runner.set_backend(volcal::ExecBackend::Batched);
  return runner;
}

void FamilySweep::add(ErasedInstance inst) {
  std::vector<NodeIndex> all(static_cast<std::size_t>(inst.node_count()));
  for (NodeIndex v = 0; v < inst.node_count(); ++v) all[static_cast<std::size_t>(v)] = v;
  points.push_back(std::move(inst));
  starts.push_back(std::move(all));
}

FamilySweep generate_family(const volcal::RegistryEntry& entry, std::int64_t max_target,
                            std::uint64_t seed, SpanLog& spans, std::int64_t parent,
                            std::vector<double>* step_s, bool keep) {
  FamilySweep out;
  out.entry = &entry;
  const std::string name = "labels.generate." + entry.name;
  NodeIndex last_n = 0;
  for (std::int64_t target = kMinTarget; target <= max_target; target *= 2) {
    std::optional<ErasedInstance> inst;
    const std::int64_t t0 = now_ns();
    {
      SpanLog::Scope span(spans, name, parent);
      inst.emplace(entry.make(static_cast<NodeIndex>(target), seed));
    }
    step_s->push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (inst->node_count() <= last_n) continue;
    last_n = inst->node_count();
    if (keep) out.add(std::move(*inst));
  }
  return out;
}

PassResult run_pass(const std::vector<FamilySweep>& families,
                    const volcal::ParallelRunner& runner, SpanLog& spans,
                    std::int64_t parent, std::uint64_t request, Tally* tally) {
  PassResult out;
  const bool profile = spans.enabled();
  volcal::SweepProfile prof;
  if (profile) out.worker_busy_ns.assign(static_cast<std::size_t>(runner.threads()), 0.0);
  const std::int64_t begin = now_ns();
  for (const FamilySweep& fam : families) {
    const std::string& family = fam.entry->name;
    std::vector<double> ns;
    std::vector<double> volumes;
    for (std::size_t p = 0; p < fam.points.size(); ++p) {
      const ErasedInstance& inst = fam.points[p];
      const std::int64_t t0 = now_ns();
      volcal::SweepResult<int> sweep;
      {
        SpanLog::Scope span(spans, "runtime.sweep." + family, parent, request);
        sweep = runner.run_planned(inst.graph(), inst.ids(), std::span(fam.starts[p]),
                                   fam.entry->plan,
                                   [&inst](Execution& e) { return inst.solve(e); },
                                   /*budget=*/0, /*tape=*/nullptr, profile ? &prof : nullptr);
      }
      const std::int64_t t1 = now_ns();
      volcal::VerifyResult verdict;
      {
        SpanLog::Scope span(spans, "lcl.verify." + family, parent, request);
        verdict = inst.verify(sweep.output);
      }
      tally->attempted += inst.node_count();
      if (!verdict.ok) tally->violations += std::max<std::int64_t>(verdict.violations, 1);
      out.sweep_s += static_cast<double>(t1 - t0) / 1e9;
      out.starts += sweep.stats.starts;
      out.total_queries += sweep.stats.total_queries;
      out.total_volume += sweep.stats.total_volume;
      ns.push_back(static_cast<double>(inst.node_count()));
      volumes.push_back(static_cast<double>(std::max<std::int64_t>(sweep.stats.max_volume, 1)));
      out.step_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (profile) {
        out.profiled_wall_ns += static_cast<double>(t1 - t0);
        for (std::size_t i = 0; i < prof.worker.size(); ++i) {
          out.worker_busy_ns[static_cast<std::size_t>(prof.worker[i])] +=
              static_cast<double>(prof.duration_ns[i]);
        }
      }
      if (p + 1 == fam.points.size()) out.top_outputs.push_back(std::move(sweep.output));
    }
    const std::int64_t fit_begin = now_ns();
    {
      SpanLog::Scope span(spans, "stats.fit", parent, request);
      out.fits.push_back(ns.size() >= 3 ? volcal::stats::classify_growth(ns, volumes).label
                                        : std::string("n/a"));
    }
    out.step_s.push_back(static_cast<double>(now_ns() - fit_begin) / 1e9);
  }
  out.pipeline_s = static_cast<double>(now_ns() - begin) / 1e9;
  return out;
}

void PipelineRuns::add(PassResult r, bool traced, Tally* tally) {
  (traced ? traced_s : plain_s).push_back(r.pipeline_s);
  if (!traced) {
    plain_sweep_s.push_back(r.sweep_s);
    best_steps.add(r.step_s);
  } else {
    traced_starts += r.starts;
    traced_queries += r.total_queries;
    profiled_wall_ns += r.profiled_wall_ns;
    worker_busy_ns.resize(r.worker_busy_ns.size(), 0.0);
    for (std::size_t w = 0; w < r.worker_busy_ns.size(); ++w) {
      worker_busy_ns[w] += r.worker_busy_ns[w];
    }
  }
  if (passes() == 1) {
    first = std::move(r);
    return;
  }
  ++tally->attempted;
  if (r.total_queries != first.total_queries || r.total_volume != first.total_volume ||
      r.starts != first.starts || r.top_outputs != first.top_outputs) {
    ++tally->nondeterministic;
  }
}

void report_pipeline_layers(const std::vector<FamilySweep>& families, const PipelineRuns& runs,
                            const SpanLog& spans, int setup_reps, Report& report) {
  const auto self = spans.self_by_name();
  const auto seconds_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second.first) / 1e9;
  };
  const auto traced = static_cast<std::int64_t>(runs.traced_s.size());
  const double per_pass = 1.0 / static_cast<double>(std::max<std::int64_t>(traced, 1));
  double sweep_s = 0.0;
  for (const FamilySweep& f : families) {
    const std::string& name = f.entry->name;
    report.add("labels.generate_s." + name, "s",
               seconds_of("labels.generate." + name) / setup_reps, setup_reps);
    report.add("lcl.verify_s." + name, "s", seconds_of("lcl.verify." + name) * per_pass,
               traced);
    const double sweep = seconds_of("runtime.sweep." + name) * per_pass;
    sweep_s += sweep;
    report.add("runtime.sweep_s." + name, "s", sweep, traced);
  }
  const double starts = static_cast<double>(runs.traced_starts) * per_pass;
  report.add("runtime.starts_per_s", "1/s", sweep_s > 0 ? starts / sweep_s : 0.0,
             runs.traced_starts);
  report.add("runtime.queries_per_s", "1/s",
             sweep_s > 0 ? static_cast<double>(runs.traced_queries) * per_pass / sweep_s : 0.0,
             runs.traced_starts);
  report.add("runtime.total_queries", "count", static_cast<double>(runs.first.total_queries),
             runs.first.starts);
  report.add("runtime.total_volume", "count", static_cast<double>(runs.first.total_volume),
             runs.first.starts);
  double busy_min = runs.worker_busy_ns.empty() ? 0.0 : runs.worker_busy_ns.front();
  for (const double b : runs.worker_busy_ns) busy_min = std::min(busy_min, b);
  report.add("runtime.worker_busy_frac_min", "frac",
             runs.profiled_wall_ns > 0 ? busy_min / runs.profiled_wall_ns : 0.0,
             static_cast<std::int64_t>(runs.worker_busy_ns.size()));
  report.add("stats.fit_s", "s", seconds_of("stats.fit") * per_pass, traced);
  report.add("trace.overhead_pipeline_s", "s", median(runs.traced_s) - median(runs.plain_s),
             runs.passes());
}

void sample_queries(const FamilySweep& family, const std::vector<int>& expected,
                    const volcal::ParallelRunner& single, int count, std::uint64_t seed,
                    std::vector<double>* latency_us, SpanLog& spans, std::int64_t parent,
                    Tally* tally) {
  const ErasedInstance& inst = family.top();
  const auto n = static_cast<std::uint64_t>(inst.node_count());
  const std::string name = "runtime.query." + family.entry->name;
  std::uint64_t rng = seed;
  for (int k = 0; k < count; ++k) {
    rng = volcal::splitmix64(rng + 0x9e3779b97f4a7c15ull);
    const auto start = static_cast<NodeIndex>(rng % n);
    const std::int64_t t0 = now_ns();
    SpanLog::Scope span(spans, name, parent, static_cast<std::uint64_t>(k));
    const auto r = single.run_planned(inst.graph(), inst.ids(), std::span(&start, 1),
                                      family.entry->plan,
                                      [&inst](Execution& e) { return inst.solve(e); });
    latency_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    ++tally->attempted;
    if (r.output[0] != expected[static_cast<std::size_t>(start)]) ++tally->wrong_labels;
  }
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

}  // namespace volbench
