// volbench core: the pieces of the benchmark that carry its contract and are
// unit-tested on their own (volbench_test.cpp).
//
//   * Report — named metrics with units and sample counts.  Names and units
//     follow the grammar BENCHMARK.json is checked against; a bad or
//     duplicate name throws, so a typo cannot silently drop a metric.
//   * Tally — operations attempted and failed.  Every failure kind (shed,
//     transport error, wrong label, invalid node, verify violation, rejected
//     update, nondeterministic rerun) counts against `failed`.
//   * SpanLog — in-memory spans (name, start, end, parent, request id)
//     recorded around the calls into each library layer, with per-name self
//     time (duration minus the part covered by child spans).
//   * percentile / median helpers shared by every metric.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace volbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Order statistics.  Nearest-rank percentiles (the smallest value with at
// least q of the sample at or below it), the definition stats::summarize uses
// everywhere else in the repository; the median is the midpoint of the two
// central values on even counts.

inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// The shortest of repeated timings of the same work.
inline double best_time(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0 : *std::min_element(seconds.begin(), seconds.end());
}

// Repeats of one fixed sequence of steps, reduced to the sum over steps of
// each step's fastest repeat.  Every end-to-end time of the benchmark is
// reported this way: on a shared host the machine's speed wanders by tens of
// percent over seconds and only ever slows a step, so each step's best
// repeat is the steadiest estimate of what the program itself needs.
class StepBest {
 public:
  // One repeat: the steps' times in their fixed order.
  void add(const std::vector<double>& step_s) {
    best_.resize(step_s.size(), 1e300);
    for (std::size_t i = 0; i < step_s.size(); ++i) best_[i] = std::min(best_[i], step_s[i]);
    ++repeats_;
  }
  double total() const {
    double sum = 0.0;
    for (const double s : best_) sum += s;
    return sum;
  }
  std::int64_t repeats() const { return repeats_; }

 private:
  std::vector<double> best_;
  std::int64_t repeats_ = 0;
};

// ---------------------------------------------------------------------------
// Metric names and units.

// A name starts with a letter or digit and has at most 64 letters, digits,
// '_', '.' and '-'.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

// A unit has 1..16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::int64_t samples = 0;  // observations the value summarizes
};

class Report {
 public:
  // Throws std::invalid_argument on a malformed name or unit, a repeated
  // name, or a non-finite value.
  void add(const std::string& name, const std::string& unit, double value,
           std::int64_t samples) {
    if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
    if (!valid_unit(unit)) throw std::invalid_argument("bad unit for " + name + ": " + unit);
    if (!std::isfinite(value)) throw std::invalid_argument("non-finite value for " + name);
    if (find(name) != nullptr) throw std::invalid_argument("duplicate metric: " + name);
    metrics_.push_back({name, unit, value, samples});
  }

  const Metric* find(std::string_view name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  // One aligned line per metric: name, value, unit, sample count.
  void print_table(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-36s %16.6g %-8s n=%lld\n", m.name.c_str(), m.value,
                   m.unit.c_str(), static_cast<long long>(m.samples));
    }
  }

  // The result line: {"correct", "attempted", "failed", "metrics"} with the
  // metrics named in `keep`, in that order (every one must be present).
  std::string json_line(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<std::string>& keep) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : keep) {
      const Metric* m = find(name);
      if (m == nullptr) throw std::logic_error("metric not reported: " + name);
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m->value);
      out += first ? "" : ", ";
      out += "\"" + m->name + "\": {\"value\": " + value + ", \"unit\": \"" + m->unit + "\"}";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Failure accounting.  failed_frac = failed / attempted; any failure fails
// the run.

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t shed = 0;
  std::int64_t transport_errors = 0;  // lost connections, unanswered requests
  std::int64_t wrong_labels = 0;      // served label != offline label
  std::int64_t invalid = 0;           // InvalidNode answers for in-range nodes
  std::int64_t violations = 0;        // LCL verifier violations (Def. 2.6)
  std::int64_t rejected_updates = 0;  // MutationBatches the service refused
  std::int64_t nondeterministic = 0;  // reruns whose exact counts differed

  std::int64_t failed() const {
    return shed + transport_errors + wrong_labels + invalid + violations +
           rejected_updates + nondeterministic;
  }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed()) / static_cast<double>(attempted)
                         : 0.0;
  }

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    shed += o.shed;
    transport_errors += o.transport_errors;
    wrong_labels += o.wrong_labels;
    invalid += o.invalid;
    violations += o.violations;
    rejected_updates += o.rejected_updates;
    nondeterministic += o.nondeterministic;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Spans.  One SpanLog per thread (recording takes no lock); logs are merged
// with append() after the threads join.  A disabled log records nothing and
// its Scope reads no clock.

inline constexpr std::int64_t kNoSpan = -1;

struct Span {
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoSpan;  // index into the same log
  std::uint64_t request = 0;      // spans of one request share this id
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Records a finished span and returns its index (kNoSpan when disabled).
  std::int64_t record(std::string name, std::int64_t begin_ns, std::int64_t end_ns,
                      std::int64_t parent = kNoSpan, std::uint64_t request = 0) {
    if (!enabled_) return kNoSpan;
    spans_.push_back({std::move(name), begin_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  // Opens a span whose end is filled in by close(); children may reference
  // it in between.
  std::int64_t open(std::string name, std::int64_t parent = kNoSpan,
                    std::uint64_t request = 0) {
    if (!enabled_) return kNoSpan;
    const std::int64_t t = now_ns();
    return record(std::move(name), t, t, parent, request);
  }
  void close(std::int64_t id) {
    if (id != kNoSpan) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  // RAII open/close.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::int64_t parent = kNoSpan,
          std::uint64_t request = 0)
        : log_(log), id_(log.open(std::move(name), parent, request)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    SpanLog& log_;
    std::int64_t id_;
  };

  // Moves another log's spans in, re-basing their parent indices.
  void append(const SpanLog& other) {
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent != kNoSpan) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }

  // Self time of every span: its duration minus the union of its children's
  // intervals clipped to it.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != kNoSpan) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns, s.end_ns);
      }
    }
    std::vector<std::int64_t> out(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t reach = s.begin_ns;  // end of the union swept so far
      for (auto [b, e] : kids) {
        b = std::max(b, reach);
        e = std::min(e, s.end_ns);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
      out[i] = (s.end_ns - s.begin_ns) - covered;
    }
    return out;
  }

  // Sum of self time and number of spans, per span name.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> self_by_name() const {
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> out;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& slot = out[spans_[i].name];
      slot.first += self[i];
      slot.second += 1;
    }
    return out;
  }

  // Tab-separated: index, name, begin_ns, end_ns, parent, request.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tname\tbegin_ns\tend_ns\tparent\trequest\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", i, s.name.c_str(),
                   static_cast<long long>(s.begin_ns), static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace volbench
