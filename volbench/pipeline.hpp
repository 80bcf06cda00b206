// The offline sweep pipeline: generate → whole-graph sweep → verify → fit,
// over a doubling n-sweep of registry families.  sweep-table1 runs it over
// every family; the serve workloads run it over the served family, whose
// largest point is the served snapshot, to get the offline labels every
// served answer is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core.hpp"
#include "stats/growth.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"

namespace volbench {

// Pinned engine configuration for every sweep: 4 worker threads, no view
// cache (Shared is slower than Off on cold whole-graph sweeps), batched
// backend (bit-identical; only ball-4 declares a batchable plan).
inline constexpr int kSweepThreads = 4;
inline constexpr std::int64_t kMinTarget = 256;

// A runner with the pinned configuration and `threads` workers.
volcal::ParallelRunner pinned_runner(int threads);

// One family's n-sweep: instances of increasing node count (targets that
// collapse onto an already generated size are skipped) and, per instance,
// the start list naming every node.
struct FamilySweep {
  const volcal::RegistryEntry* entry = nullptr;
  std::vector<volcal::ErasedInstance> points;
  std::vector<std::vector<volcal::NodeIndex>> starts;

  void add(volcal::ErasedInstance inst);
  const volcal::ErasedInstance& top() const { return points.back(); }
};

// Generates targets kMinTarget, 2·kMinTarget, ... <= max_target, recording
// one "labels.generate.<family>" span per call to RegistryEntry::make and
// appending each call's time to `step_s`.  With keep == false every instance
// is dropped as soon as it is timed (a set-up repeat that only measures).
FamilySweep generate_family(const volcal::RegistryEntry& entry, std::int64_t max_target,
                            std::uint64_t seed, SpanLog& spans, std::int64_t parent,
                            std::vector<double>* step_s, bool keep = true);

struct PassResult {
  double pipeline_s = 0.0;  // sweep + verify + fit, all families
  // The same split into steps, in a fixed order: per family, each point's
  // sweep + verify, then the fit.
  std::vector<double> step_s;
  double sweep_s = 0.0;     // run_planned calls only
  std::int64_t starts = 0;
  std::int64_t total_queries = 0;
  std::int64_t total_volume = 0;
  std::vector<std::vector<int>> top_outputs;  // per family, largest point
  std::vector<std::string> fits;              // per family, fitted volume class
  // Trace mode only (SweepProfile): busy time per worker, summed over the
  // pass's sweeps, and the summed sweep wall time.
  std::vector<double> worker_busy_ns;
  double profiled_wall_ns = 0.0;
};

// One pipeline pass over `families`: for every point a whole-graph
// ParallelRunner::run_planned (every node a start) whose outputs must pass
// ErasedInstance::verify, then per family stats::classify_growth on the
// volume curve.  Every verified node counts as attempted; every violation
// as failed.  With spans enabled, records runtime.sweep.<family>,
// lcl.verify.<family> and stats.fit spans and attaches a SweepProfile.
PassResult run_pass(const std::vector<FamilySweep>& families,
                    const volcal::ParallelRunner& runner, SpanLog& spans,
                    std::int64_t parent, std::uint64_t request, Tally* tally);

// Passes of one run, folded together.  add() checks that every exact count
// and every output repeats the first pass (a difference counts as a
// nondeterministic failure) and keeps traced and untraced pipeline times
// apart, so their medians give the tracing overhead.
struct PipelineRuns {
  std::vector<double> plain_s;        // pipeline time of each untraced pass
  StepBest best_steps;                // untraced passes, step by step
  std::vector<double> plain_sweep_s;  // sweep time of each untraced pass
  std::vector<double> traced_s;
  PassResult first;
  std::int64_t traced_starts = 0;
  std::int64_t traced_queries = 0;
  std::vector<double> worker_busy_ns;
  double profiled_wall_ns = 0.0;

  void add(PassResult r, bool traced, Tally* tally);
  std::int64_t passes() const {
    return static_cast<std::int64_t>(plain_s.size() + traced_s.size());
  }
};

// Per-layer metrics of the pipeline, from the spans of the traced passes:
// labels.generate_s.<family> (per set-up), lcl.verify_s.<family>,
// runtime.sweep_s.<family> and stats.fit_s (per pass), throughput, exact
// work counts, worker busy share and the tracing overhead.
void report_pipeline_layers(const std::vector<FamilySweep>& families, const PipelineRuns& runs,
                            const SpanLog& spans, int setup_reps, Report& report);

// Single-node queries: `count` uniformly drawn starts of the family's largest
// instance, each one run_planned call over a one-element start list on
// `single` (the library user's one-query path).  Appends each call's latency
// in microseconds, and counts a label that differs from `expected` (the
// whole-graph sweep's output) as a wrong label.
void sample_queries(const FamilySweep& family, const std::vector<int>& expected,
                    const volcal::ParallelRunner& single, int count, std::uint64_t seed,
                    std::vector<double>* latency_us, SpanLog& spans, std::int64_t parent,
                    Tally* tally);

// Peak resident set size of this process, in bytes.
double peak_rss_bytes();

}  // namespace volbench
