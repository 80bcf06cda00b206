// volbench — the repository benchmark program.
//
//   volbench --workload <sweep-table1|serve-ball-zipf|serve-leaf-churn>
//            --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload through the library's public API, prints a table of
// every metric it measured (name, value, unit, sample count), and ends with
// one JSON result line: {"correct", "attempted", "failed", "metrics"} where
// the metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1).  Any wrong output — a verifier violation, a served label that
// differs from the offline label, a shed, a lost request, a refused update,
// a rerun whose exact counts differ — makes the result incorrect and the
// exit code 1.  Traced runs also write their spans to
// <out-dir>/spans-<workload>.tsv.
//
// Every engine and service setting is pinned in code; VOLCAL_THREADS,
// VOLCAL_CACHE, VOLCAL_CACHE_MB and VOLCAL_BACKEND are reported when set
// and otherwise ignored.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "workloads.hpp"

namespace volbench {

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "volbench: %s\nusage: volbench --workload <sweep-table1|serve-ball-zipf|"
               "serve-leaf-churn> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dropped connection surfaces as a send error
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage(("unknown argument " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes a value");
  if (!have_seed) return usage("--seed <n> is required");

  for (const char* var : {"VOLCAL_THREADS", "VOLCAL_CACHE", "VOLCAL_CACHE_MB", "VOLCAL_BACKEND"}) {
    if (const char* v = std::getenv(var)) {
      std::printf("note: %s=%s is set and ignored (configuration is pinned)\n", var, v);
    }
  }
  std::printf("host: nproc=%u workload=%s seed=%llu seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);
  std::filesystem::create_directories(opt.out_dir);

  Outcome out;
  out.spans = SpanLog(opt.trace);
  if (opt.workload == "sweep-table1") {
    run_sweep_table1(opt, out);
  } else if (opt.workload == "serve-ball-zipf") {
    run_serve_ball_zipf(opt, out);
  } else if (opt.workload == "serve-leaf-churn") {
    run_serve_leaf_churn(opt, out);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  out.report.add("failed_frac", "frac", out.tally.failed_frac(), out.tally.attempted);
  std::vector<std::string> layers;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const Metric* m = out.report.find(name);
    if (m != nullptr && m->unit != unit) throw std::logic_error("unit mismatch for " + name);
    if (m == nullptr && opt.trace) out.report.add(name, unit, 0.0, 0);
    layers.push_back(name);
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + ".tsv";
    if (!out.spans.write_tsv(path)) {
      std::fprintf(stderr, "volbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("spans: %zu written to %s\n", out.spans.spans().size(), path.c_str());
  }
  const Tally& t = out.tally;
  std::printf("tally: attempted=%lld failed=%lld (shed=%lld transport=%lld wrong_labels=%lld "
              "invalid=%lld violations=%lld rejected_updates=%lld nondeterministic=%lld)\n",
              static_cast<long long>(t.attempted), static_cast<long long>(t.failed()),
              static_cast<long long>(t.shed), static_cast<long long>(t.transport_errors),
              static_cast<long long>(t.wrong_labels), static_cast<long long>(t.invalid),
              static_cast<long long>(t.violations), static_cast<long long>(t.rejected_updates),
              static_cast<long long>(t.nondeterministic));
  out.report.print_table(stdout);
  const bool correct = t.failed() == 0 && t.attempted > 0;
  std::printf("%s\n", out.report
                          .json_line(correct, std::max<std::int64_t>(t.attempted, 1), t.failed(),
                                     opt.trace ? layers : kEndToEnd)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace volbench

int main(int argc, char** argv) {
  try {
    return volbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volbench: error: %s\n", e.what());
    return 2;
  }
}
