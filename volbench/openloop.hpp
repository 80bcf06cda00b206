// Open-loop request generator for an in-process volcal service.
//
// Each connection is one typed ServeClient with a receiver thread; one
// sender thread (the caller's) sends request k on connection k mod C when it
// falls due on a fixed schedule, whatever the state of earlier responses, so
// a stalled service builds a queue instead of slowing the generator down.  Every latency is
// timed from the request's *due* time, which charges a stall to every
// request it delays; how late the sender actually sent is kept separately
// (gen lag) to show whether the generator kept its schedule.
//
// Every answer is checked: a shed, an InvalidNode for an in-range node, a
// label that differs from the expected offline label, or a request left
// unanswered when a connection fails counts as failed in the phase's Tally.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core.hpp"
#include "volcal/serve.hpp"

namespace volbench {

// One request's timeline on the client clock (steady_clock ns), plus the
// service's own enqueue-to-dispatch latency from its Result frame.
struct RequestRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::int64_t service_ns = 0;
};

struct PhaseConfig {
  double rate = 1000.0;     // offered requests per second, all connections
  double seconds = 1.0;     // schedule length; requests = rate * seconds
  int connections = 2;
  std::uint64_t seed = 1;   // traffic seed
  // Node of request i on connection c (called on the sender thread).
  std::function<std::int64_t(int conn, std::int64_t i, std::uint64_t* rng)> node_of;
  // Offline labels to check answers against; nullptr skips the label check
  // (answers that may race a concurrent update).
  const std::vector<int>* expected = nullptr;
  // Span recording (trace mode): request / load.gen_lag / transport /
  // serve.service per answered request.
  bool trace = false;
};

struct PhaseResult {
  Tally tally;
  std::vector<RequestRecord> served;  // answered Ok, in no particular order
  std::int64_t begin_ns = 0;          // schedule origin
  std::int64_t last_due_ns = 0;
  std::int64_t last_recv_ns = 0;
  SpanLog spans{false};

  // Client latencies from the due time, in microseconds, grouped by due
  // time into consecutive windows of `window_s` seconds from the schedule
  // origin.
  std::vector<std::vector<double>> windows_us(double window_s) const;
};

// The lower quartile, across windows of at least 100 samples, of each
// window's q quantile: stalls of a shared host only ever add latency, and
// they come and go within a run, so the quieter quarter of the windows
// measures the program rather than its neighbours.
double windowed_percentile(const std::vector<std::vector<double>>& windows, double q);

// The lower quartile, across windows of at least 100 samples, of each
// window's mean.
double windowed_mean(const std::vector<std::vector<double>>& windows);

// Sleeps until shortly before `t` (steady_clock ns), then spins until `t`.
void wait_until_ns(std::int64_t t);

// Classifies one decoded answer to a query for `node` into `tally` and
// returns true when it is a correct, served result.  Exposed for the tests.
bool account_answer(const volcal::serve::Frame& frame, std::int64_t node,
                    const std::vector<int>* expected, Tally* tally);

// Runs one phase against the server at `socket_path`.
PhaseResult run_phase(const std::string& socket_path, const PhaseConfig& config);

// Zipfian(theta) ranks over [0, n) by inverse CDF, mapped to nodes through a
// seeded permutation so the hot centers are scattered over the graph rather
// than packed at the lowest node ids.  theta == 0 is uniform.
class ZipfNodes {
 public:
  ZipfNodes(std::int64_t n, double theta, std::uint64_t seed);
  std::int64_t sample(std::uint64_t* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::int64_t> node_of_rank_;
};

}  // namespace volbench
