// The two served-request workloads: a snapshot is generated, saved and
// mmap-loaded, served in-process by QueryService behind SocketServer, and
// driven over Unix-socket connections by the open-loop generator.
//
//   serve-ball-zipf   ball-4, 2 workers, Shared view cache, batched plan;
//                     Zipf(0.99) reads.  Exercises admission, wave batching,
//                     BatchedBallExecutor and cache hits; no mutations.
//   serve-leaf-churn  leaf-coloring, 2 workers, no cache, per-start solver;
//                     uniform reads beside synchronous MutationBatch updates
//                     (one per 1000 reads) on a third connection.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "openloop.hpp"
#include "pipeline.hpp"
#include "util/hash.hpp"
#include "volcal/io.hpp"
#include "workloads.hpp"

namespace volbench {
namespace {

using volcal::ErasedInstance;
using volcal::serve::QueryService;
using volcal::serve::ServeConfig;
using volcal::serve::SocketServer;

constexpr std::int64_t kServeTarget = 65536;
constexpr int kSetupReps = 6;
constexpr int kSetupTailReps = 3;
constexpr int kServeThreads = 2;
constexpr std::size_t kQueueCapacity = std::size_t{1} << 16;
constexpr int kBatchMax = 64;
constexpr int kConnections = 2;
constexpr double kBacklogLimitUs = 1000.0;
constexpr double kWarmupSeconds = 0.5;
constexpr double kRungSeconds = 0.4;
constexpr double kWindow = 0.1;
constexpr double kLadderStart = 25000.0;  // reads/s
constexpr double kLadderMax = 400000.0;
constexpr double kGrid = 1.08;
constexpr int kCoarseStep = 3;
constexpr int kPipelinePasses = 6;
constexpr double kVerifyRate = 200000.0;
constexpr std::int64_t kBatchQueries = 65536;  // <= kQueueCapacity
constexpr double kBatchRate = 1e7;
constexpr int kBatchReps = 5;

struct ServeSpec {
  const char* workload;
  const char* family;
  double theta;                    // Zipf exponent of reads; 0 = uniform
  volcal::CachePolicy cache;
  double fixed_rate;               // reads/s of the fixed-rate phase
  std::int64_t reads_per_update;   // 0 = no updates
};

constexpr ServeSpec kZipf{"serve-ball-zipf", "ball-4", 0.99, volcal::CachePolicy::Shared,
                          10000.0, 0};
constexpr ServeSpec kChurn{"serve-leaf-churn", "leaf-coloring", 0.0, volcal::CachePolicy::Off,
                           20000.0, 1000};

ServeConfig pinned_serve_config(const ServeSpec& spec) {
  ServeConfig cfg;
  cfg.threads = kServeThreads;
  cfg.queue_capacity = kQueueCapacity;
  cfg.batch_max = kBatchMax;
  cfg.cache = volcal::CacheConfig{spec.cache};
  return cfg;
}

// A running service on one loaded snapshot.  Stops on destruction: drain
// first (every accepted request answers), then close the transport.
struct Stack {
  std::shared_ptr<const ErasedInstance> instance;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<SocketServer> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { stop(); }
  void stop() {
    if (service) service->drain_and_stop();
    if (server) server->stop();
  }
};

std::vector<double> durations_us(const SpanLog& spans, const std::string& name, bool self) {
  const std::vector<std::int64_t> self_ns = self ? spans.self_ns() : std::vector<std::int64_t>{};
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    if (s.name != name) continue;
    out.push_back(static_cast<double>(self ? self_ns[i] : s.end_ns - s.begin_ns) / 1e3);
  }
  return out;
}

// One capacity ladder: rates start · kGrid^(step·k), each held for
// kRungSeconds, until a rung shows a growing backlog: the fastest tenth of
// the requests due in its last kWindow seconds waited more than
// kBacklogLimitUs.  (Below capacity the queue empties between arrivals, so
// even on a host that stalls the service now and then most requests are
// served at once; above it, every request waits behind the queue.)  The
// ladder's capacity is the completion rate the service reached during that
// overloaded rung, or the last sustained rate if that was higher.
double run_ladder(const std::string& socket, const PhaseConfig& base, double start, int step,
                  Tally* tally, int ladder) {
  const double factor = std::pow(kGrid, step);
  double sustained = 0.0;
  for (double rate = start;; rate *= factor) {
    PhaseConfig cfg = base;
    cfg.rate = rate;
    cfg.seconds = kRungSeconds;
    cfg.seed = volcal::mix64(base.seed, static_cast<std::uint64_t>(ladder),
                             static_cast<std::uint64_t>(rate));
    const PhaseResult res = run_phase(socket, cfg);
    *tally += res.tally;
    const auto windows = res.windows_us(kWindow);
    const double backlog = windows.empty() ? 0.0 : percentile(windows.back(), 0.10);
    std::int64_t completed = 0;
    for (const RequestRecord& r : res.served) completed += r.recv_ns <= res.last_due_ns ? 1 : 0;
    const double reached =
        static_cast<double>(completed) / (static_cast<double>(res.last_due_ns - res.begin_ns) / 1e9);
    const bool growing = backlog > kBacklogLimitUs;
    std::printf("  ladder %d rung %.0f/s: completed %.0f/s, last window p10 %.0f us%s\n", ladder,
                rate, reached, backlog, growing ? " (backlog)" : "");
    if (growing) return std::max(sustained, reached);
    sustained = rate;
    if (rate * factor > kLadderMax) return rate;
  }
}

// The update stream of serve-leaf-churn.  Batches are drawn with
// propose_mutation before the phase starts, each against the client's mirror
// instance advanced by the batches before it, so the mirror's copy-on-write
// work does not compete with the service for the CPU while it is measured.
std::vector<volcal::MutationBatch> propose_batches(ErasedInstance* mirror, std::int64_t count,
                                                   std::uint64_t seed, std::uint64_t salt) {
  std::vector<volcal::MutationBatch> batches;
  for (std::int64_t u = 0; u < count; ++u) {
    batches.push_back(mirror->propose_mutation(
        volcal::mix64(seed, salt, static_cast<std::uint64_t>(u)), /*rewires=*/2,
        /*label_updates=*/2));
    *mirror = mirror->mutated(batches.back());
  }
  return batches;
}

struct UpdateLog {
  Tally tally;
  std::vector<double> latency_us;  // due time to acknowledgment
  std::vector<double> apply_us;    // UpdateResultFrame.apply_ns
  SpanLog spans{false};
};

// Sends `batches` synchronously over one connection, batch u due at
// (u + 0.5) · seconds / count.  The service must apply every one: a refusal
// means the mirror and the service disagree about the graph.
void run_updates(const std::string& socket, const std::vector<volcal::MutationBatch>& batches,
                 double seconds, UpdateLog* log) {
  const auto count = static_cast<std::int64_t>(batches.size());
  volcal::serve::ServeClient client;
  log->tally.attempted += count;
  if (!client.connect(socket)) {
    log->tally.transport_errors += count;
    return;
  }
  const std::int64_t begin = now_ns() + 2'000'000;
  const double interval_ns = seconds * 1e9 / static_cast<double>(count);
  for (std::int64_t u = 0; u < count; ++u) {
    const auto due = begin + static_cast<std::int64_t>((static_cast<double>(u) + 0.5) * interval_ns);
    wait_until_ns(due);
    const volcal::serve::ServeClient::UpdateReply reply =
        client.update(batches[static_cast<std::size_t>(u)]);
    const std::int64_t recv = now_ns();
    if (!reply.ok) {
      log->tally.transport_errors += count - u;
      return;
    }
    if (reply.result.status != volcal::serve::UpdateStatus::Ok) {
      log->tally.rejected_updates += count - u;
      return;
    }
    log->latency_us.push_back(static_cast<double>(recv - due) / 1e3);
    log->apply_us.push_back(static_cast<double>(reply.result.apply_ns) / 1e3);
    const std::int64_t top = log->spans.record("update", due, recv, kNoSpan,
                                               static_cast<std::uint64_t>(u));
    log->spans.record("serve.apply_mutation", std::max(due, recv - reply.result.apply_ns), recv,
                      top, static_cast<std::uint64_t>(u));
  }
}

// Offline labels of `inst` from the per-start engine (never the batched
// backend, never a cache), the reference every served answer must equal.
std::vector<int> offline_labels(const ErasedInstance& inst) {
  return pinned_runner(kSweepThreads)
      .run_at_all_nodes(inst.graph(), inst.ids(),
                        [&inst](volcal::Execution& e) { return inst.solve(e); })
      .output;
}

// Re-queries every node once and checks each answer against `expected`.
void verify_all_nodes(const std::string& socket, const std::vector<int>& expected,
                      std::uint64_t seed, Tally* tally) {
  PhaseConfig cfg;
  cfg.connections = kConnections;
  cfg.rate = kVerifyRate;
  cfg.seconds = static_cast<double>(expected.size()) / kVerifyRate;
  cfg.seed = seed;
  cfg.expected = &expected;
  cfg.node_of = [](int c, std::int64_t i, std::uint64_t*) { return i * kConnections + c; };
  *tally += run_phase(socket, cfg).tally;
}

void run_serve(const ServeSpec& spec, const Options& opt, Outcome& out) {
  const volcal::RegistryEntry* entry = volcal::ProblemRegistry::global().find(spec.family);
  if (entry == nullptr) throw std::runtime_error(std::string("no family ") + spec.family);
  SpanLog& spans = out.spans;
  const std::string snap = opt.out_dir + "/" + spec.workload + "-s" + std::to_string(opt.seed) +
                           "-p" + std::to_string(::getpid()) + ".vsnap";
  const std::string socket = opt.out_dir + "/" + spec.workload + "-p" +
                             std::to_string(::getpid()) + ".sock";

  // Set-up: generate the family's n-sweep and the served instance, save it
  // as a snapshot, mmap it back, start the service and its socket server.
  // It runs kSetupReps times up front (the last stack is kept) and
  // kSetupTailReps times more at the end, on a second snapshot and socket,
  // so its repeats span the run.
  StepBest setup;
  const auto set_up = [&](int rep, Stack& into, const std::string& path,
                          const std::string& sock, FamilySweep* family) {
    into.stop();
    into.server.reset();
    into.service.reset();
    into.instance.reset();
    std::vector<double> step_s;
    const auto timed = [&step_s](const auto& step) {
      const std::int64_t t0 = now_ns();
      step();
      step_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    };
    SpanLog::Scope top(spans, "setup", kNoSpan, static_cast<std::uint64_t>(rep));
    *family = generate_family(*entry, kServeTarget / 2, opt.seed, spans, top.id(), &step_s);
    std::optional<ErasedInstance> full;
    timed([&] {
      SpanLog::Scope span(spans, "labels.generate." + entry->name, top.id());
      full.emplace(entry->make(static_cast<volcal::NodeIndex>(kServeTarget), opt.seed));
    });
    timed([&] {
      SpanLog::Scope span(spans, "io.snapshot_save", top.id());
      full->save_snapshot(path);
    });
    full.reset();
    timed([&] {
      SpanLog::Scope span(spans, "io.snapshot_load", top.id());
      into.instance = std::make_shared<const ErasedInstance>(volcal::io::load_instance(path));
    });
    timed([&] {
      SpanLog::Scope span(spans, "serve.start", top.id());
      into.service = std::make_unique<QueryService>(
          volcal::serve::make_serve_target(into.instance), pinned_serve_config(spec));
      into.server = std::make_unique<SocketServer>();
      if (!into.server->start(*into.service, sock)) {
        throw std::runtime_error("cannot listen on " + sock);
      }
    });
    setup.add(step_s);
  };
  std::vector<FamilySweep> families(1);
  Stack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) set_up(rep, stack, snap, socket, &families[0]);
  const ErasedInstance& served = *stack.instance;
  const auto n = static_cast<std::int64_t>(served.node_count());
  const double snapshot_bytes = static_cast<double>(std::filesystem::file_size(snap));
  families[0].add(served);
  std::printf("facts: workload=%s family=%s n=%lld service_threads=%d cache=%s batch_max=%d "
              "queue=%zu connections=%d zipf=%.2f fixed_rate=%.0f ladder=%.0f..%.0fx%.2f^k "
              "reads_per_update=%lld backlog_limit_us=%.0f\n",
              spec.workload, spec.family, static_cast<long long>(n), kServeThreads,
              volcal::cache_policy_name(spec.cache), kBatchMax, kQueueCapacity, kConnections,
              spec.theta, spec.fixed_rate, kLadderStart, kLadderMax, kGrid,
              static_cast<long long>(spec.reads_per_update), kBacklogLimitUs);

  // The offline pipeline over the served family; its largest point is the
  // served snapshot.  It runs on one thread (its sweeps are short, and on
  // four threads their time is mostly thread start-up and load imbalance),
  // kPipelinePasses times, before any serving.
  const volcal::ParallelRunner runner = pinned_runner(1);
  PipelineRuns runs;
  SpanLog off(false);
  for (int pass = 0; pass < kPipelinePasses; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    runs.add(run_pass(families, runner, traced ? spans : off, kNoSpan,
                      static_cast<std::uint64_t>(pass), &out.tally),
             traced, &out.tally);
  }
  const std::vector<int> expected = offline_labels(served);
  ++out.tally.attempted;
  if (runs.first.top_outputs[0] != expected) ++out.tally.wrong_labels;

  const ZipfNodes nodes(n, spec.theta, volcal::mix64(opt.seed, 0x7a697066ull));
  PhaseConfig base;
  base.connections = kConnections;
  base.seed = opt.seed;
  base.expected = &expected;
  base.node_of = [&nodes](int, std::int64_t, std::uint64_t* rng) { return nodes.sample(rng); };

  // Warm-up: fills the view cache and faults the snapshot in; checked, not
  // timed.
  {
    PhaseConfig cfg = base;
    cfg.rate = spec.fixed_rate;
    cfg.seconds = kWarmupSeconds;
    out.tally += run_phase(socket, cfg).tally;
  }

  // Throughput: kBatchQueries reads from the workload's distribution,
  // offered all at once (they fit the admission queue, so none is shed),
  // timed to the last answer; kBatchReps times, right after the warm-up, so
  // every run measures them after the same number of requests.
  std::vector<double> batch_s;
  for (int rep = 0; rep < kBatchReps; ++rep) {
    PhaseConfig cfg = base;
    cfg.rate = kBatchRate;
    cfg.seconds = static_cast<double>(kBatchQueries) / kBatchRate;
    cfg.seed = volcal::mix64(opt.seed, 0x6261746368ull, static_cast<std::uint64_t>(rep));
    const PhaseResult res = run_phase(socket, cfg);
    out.tally += res.tally;
    batch_s.push_back(static_cast<double>(res.last_recv_ns - res.begin_ns) / 1e9);
  }

  // Capacity ladders, before any mutation so every answer is checkable.
  // Every ladder climbs the same grid of rates, kLadderStart · 1.08^k.  The
  // first strides three grid points a rung; later ones take every grid
  // point from three below the best capacity so far, so a run spends most
  // of its ladder time near the knee.
  std::vector<double> capacities;
  const auto ladders = [&](double budget_s) {
    const std::int64_t until = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    do {
      double start = kLadderStart;
      int step = kCoarseStep;
      if (!capacities.empty()) {
        const double best = *std::max_element(capacities.begin(), capacities.end());
        while (start * std::pow(kGrid, 3) < best) start *= kGrid;
        step = 1;
      }
      capacities.push_back(
          run_ladder(socket, base, start, step, &out.tally, static_cast<int>(capacities.size())));
    } while (now_ns() < until);
  };
  const bool churn = spec.reads_per_update > 0;
  ladders(opt.seconds * 0.4);

  // The fixed-rate phase: reads at spec.fixed_rate (beside updates under
  // churn).  In trace mode it runs in two halves, the first untraced, the
  // second recording spans, so the two p50s give the tracing overhead.
  ErasedInstance local = served;
  UpdateLog updates;
  std::vector<std::vector<double>> windows_plain;
  std::vector<std::vector<double>> windows_traced;
  std::vector<double> gen_lag_us;
  const volcal::CacheStats cache_before = stack.service->cache_stats();
  const std::int64_t waves_before = stack.service->metrics().counter("serve.waves")->value();
  const std::int64_t batched_before =
      stack.service->metrics().counter("serve.batched_starts")->value();
  const int halves = opt.trace ? 2 : 1;
  for (int half = 0; half < halves; ++half) {
    PhaseConfig cfg = base;
    cfg.rate = spec.fixed_rate;
    cfg.seconds = opt.seconds * 0.5 / halves;
    cfg.seed = volcal::mix64(opt.seed, 0x6669786564ull, static_cast<std::uint64_t>(half));
    cfg.trace = half == 1;
    std::thread updater;
    if (churn) {
      cfg.expected = nullptr;  // a read may race an update: checked after churn
      const auto count = std::max<std::int64_t>(
          1, std::llround(cfg.rate * cfg.seconds / static_cast<double>(spec.reads_per_update)));
      updates.spans = SpanLog(opt.trace);
      updater = std::thread(
          [&, batches = propose_batches(&local, count, opt.seed, static_cast<std::uint64_t>(half)),
           seconds = cfg.seconds] { run_updates(socket, batches, seconds, &updates); });
    }
    PhaseResult res = run_phase(socket, cfg);
    if (updater.joinable()) updater.join();
    out.tally += res.tally;
    auto windows = res.windows_us(kWindow);
    (half == 0 ? windows_plain : windows_traced) = std::move(windows);
    for (const RequestRecord& r : res.served) {
      gen_lag_us.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
    }
    spans.append(res.spans);
    spans.append(updates.spans);
  }
  const volcal::CacheStats cache = stack.service->cache_stats() - cache_before;
  const double waves =
      static_cast<double>(stack.service->metrics().counter("serve.waves")->value() - waves_before);
  const double batched = static_cast<double>(
      stack.service->metrics().counter("serve.batched_starts")->value() - batched_before);
  out.tally += updates.tally;

  // After churn, every node must answer with the label the client's mirror
  // instance gives offline.
  if (churn) {
    verify_all_nodes(socket, offline_labels(local), volcal::mix64(opt.seed, 0x766572ull),
                     &out.tally);
  }
  const double shed = static_cast<double>(stack.service->counters().shed);
  stack.stop();
  {
    Stack tail;
    FamilySweep unused;
    for (int rep = 0; rep < kSetupTailReps; ++rep) {
      set_up(kSetupReps + rep, tail, snap + ".tail", socket + ".tail", &unused);
    }
  }
  std::filesystem::remove(snap);
  std::filesystem::remove(snap + ".tail");

  out.report.add("setup_s", "s", setup.total(), setup.repeats());
  out.report.add("pipeline_s", "s", runs.best_steps.total(), runs.best_steps.repeats());
  out.report.add("throughput_qps", "1/s", static_cast<double>(kBatchQueries) / best_time(batch_s),
                 kBatchReps);
  std::int64_t fixed_samples = 0;
  for (const auto& w : windows_plain) fixed_samples += static_cast<std::int64_t>(w.size());
  out.report.add("query_mean_us", "us", windowed_mean(windows_plain), fixed_samples);
  out.report.add("query_p50_us", "us", windowed_percentile(windows_plain, 0.50), fixed_samples);
  out.report.add("query_p99_us", "us", windowed_percentile(windows_plain, 0.99), fixed_samples);
  // The best ladder: a rung above the service's capacity cannot pass (its
  // backlog grows), while a stall of the host can only fail one early.
  out.report.add("capacity_qps", "1/s", *std::max_element(capacities.begin(), capacities.end()),
                 static_cast<std::int64_t>(capacities.size()));
  out.report.add("rss_bytes_per_node", "B/node", peak_rss_bytes() / static_cast<double>(n), 1);
  out.report.add("update_p50_us", "us", percentile(updates.latency_us, 0.50),
                 static_cast<std::int64_t>(updates.latency_us.size()));
  out.report.add("update_p99_us", "us", percentile(updates.latency_us, 0.99),
                 static_cast<std::int64_t>(updates.latency_us.size()));
  out.report.add("serve.apply_mutation_p50_us", "us", percentile(updates.apply_us, 0.50),
                 static_cast<std::int64_t>(updates.apply_us.size()));
  out.report.add("serve.apply_mutation_p99_us", "us", percentile(updates.apply_us, 0.99),
                 static_cast<std::int64_t>(updates.apply_us.size()));
  out.report.add("load.gen_lag_p99_us", "us", percentile(gen_lag_us, 0.99),
                 static_cast<std::int64_t>(gen_lag_us.size()));
  out.report.add("serve.shed", "count", shed, out.tally.attempted);
  const auto lookups = cache.hits + cache.misses;
  out.report.add("cache.hit_ratio", "frac",
                 lookups > 0 ? static_cast<double>(cache.hits) / static_cast<double>(lookups) : 0.0,
                 lookups);
  out.report.add("cache.lookups", "count", static_cast<double>(lookups), lookups);
  out.report.add("serve.wave_occupancy", "starts/wave", waves > 0 ? batched / waves : 0.0,
                 static_cast<std::int64_t>(waves));
  out.report.add("io.snapshot_bytes_per_node", "B/node", snapshot_bytes / static_cast<double>(n),
                 1);
  if (!opt.trace) return;

  report_pipeline_layers(families, runs, spans, static_cast<int>(setup.repeats()), out.report);
  const auto self = spans.self_by_name();
  const auto seconds_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second.first) / 1e9;
  };
  const auto reps = static_cast<double>(setup.repeats());
  out.report.add("io.snapshot_save_s", "s", seconds_of("io.snapshot_save") / reps,
                 setup.repeats());
  out.report.add("io.snapshot_load_s", "s", seconds_of("io.snapshot_load") / reps,
                 setup.repeats());
  const std::vector<double> service = durations_us(spans, "serve.service", false);
  const std::vector<double> transport = durations_us(spans, "transport", true);
  out.report.add("serve.service_p50_us", "us", percentile(service, 0.50),
                 static_cast<std::int64_t>(service.size()));
  out.report.add("serve.service_p99_us", "us", percentile(service, 0.99),
                 static_cast<std::int64_t>(service.size()));
  out.report.add("transport.overhead_p50_us", "us", percentile(transport, 0.50),
                 static_cast<std::int64_t>(transport.size()));
  out.report.add("transport.overhead_p99_us", "us", percentile(transport, 0.99),
                 static_cast<std::int64_t>(transport.size()));
  out.report.add("trace.overhead_query_p50_us", "us",
                 windowed_percentile(windows_traced, 0.50) -
                     windowed_percentile(windows_plain, 0.50),
                 static_cast<std::int64_t>(service.size()));
}

}  // namespace

void run_serve_ball_zipf(const Options& opt, Outcome& out) { run_serve(kZipf, opt, out); }
void run_serve_leaf_churn(const Options& opt, Outcome& out) { run_serve(kChurn, opt, out); }

}  // namespace volbench
