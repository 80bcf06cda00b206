#include "openloop.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "util/hash.hpp"

namespace volbench {

using volcal::serve::Frame;
using volcal::serve::FrameType;
using volcal::serve::QueryStatus;

std::vector<std::vector<double>> PhaseResult::windows_us(double window_s) const {
  std::vector<std::vector<double>> out;
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  for (const RequestRecord& r : served) {
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(r.due_ns - begin_ns, 0) / width);
    if (out.size() <= w) out.resize(w + 1);
    out[w].push_back(static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
  }
  return out;
}

double windowed_percentile(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= 100) per_window.push_back(percentile(w, q));
  }
  return percentile(per_window, 0.25);
}

double windowed_mean(const std::vector<std::vector<double>>& windows) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (w.size() < 100) continue;
    double total = 0.0;
    for (const double v : w) total += v;
    per_window.push_back(total / static_cast<double>(w.size()));
  }
  return percentile(per_window, 0.25);
}

void wait_until_ns(std::int64_t t) {
  constexpr std::int64_t kSpinNs = 200'000;
  if (t - now_ns() > kSpinNs) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t - kSpinNs)));
  }
  while (now_ns() < t) {
  }
}

bool account_answer(const Frame& frame, std::int64_t node, const std::vector<int>* expected,
                    Tally* tally) {
  if (frame.type == FrameType::Shed) {
    ++tally->shed;
    return false;
  }
  if (frame.type != FrameType::Result) {
    ++tally->transport_errors;
    return false;
  }
  if (frame.result.status != QueryStatus::Ok) {
    ++tally->invalid;
    return false;
  }
  if (expected != nullptr &&
      (node < 0 || node >= static_cast<std::int64_t>(expected->size()) ||
       frame.result.label != (*expected)[static_cast<std::size_t>(node)])) {
    ++tally->wrong_labels;
    return false;
  }
  return true;
}

namespace {

struct Connection {
  volcal::serve::ServeClient client;
  std::int64_t count = 0;
  std::vector<RequestRecord> records;
  std::vector<std::int64_t> nodes;
  std::atomic<std::int64_t> published{0};  // records[0, published) are written
  std::vector<RequestRecord> served;
  Tally tally;
  SpanLog spans{false};
  std::int64_t last_recv_ns = 0;
};

// One sender thread for all connections, spinning through the last
// kSpinNs before each due time: a sleeping thread's wake-up on a virtual CPU
// can be milliseconds late, and that lateness would be charged to the
// service.
void send_loop(std::vector<std::unique_ptr<Connection>>& conns, const PhaseConfig& cfg,
               std::int64_t total, std::int64_t begin_ns) {
  const auto c_count = static_cast<std::int64_t>(conns.size());
  std::vector<char> alive(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) alive[c] = conns[c]->client.connected();
  std::uint64_t rng = volcal::splitmix64(cfg.seed * 0x100000001b3ull);
  for (std::int64_t k = 0; k < total; ++k) {
    const auto c = static_cast<std::size_t>(k % c_count);
    const std::int64_t i = k / c_count;
    Connection& conn = *conns[c];
    if (alive[c] == 0) continue;
    RequestRecord& rec = conn.records[static_cast<std::size_t>(i)];
    rec.due_ns = begin_ns + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / cfg.rate);
    const std::int64_t node = cfg.node_of(static_cast<int>(c), i, &rng);
    conn.nodes[static_cast<std::size_t>(i)] = node;
    wait_until_ns(rec.due_ns);
    rec.sent_ns = now_ns();
    conn.published.store(i + 1, std::memory_order_release);
    // A failed send means the connection is gone; its receiver sees the
    // same failure and charges every unanswered request.
    if (!conn.client.post_query(static_cast<std::uint64_t>(i), node)) alive[c] = 0;
  }
}

void receive_loop(Connection& conn, const PhaseConfig& cfg, int c) {
  std::int64_t answered = 0;
  Frame frame;
  while (answered < conn.count) {
    if (!conn.client.poll(&frame)) break;
    std::uint64_t id = 0;
    if (frame.type == FrameType::Result) {
      id = frame.result.request_id;
    } else if (frame.type == FrameType::Shed) {
      id = frame.shed.request_id;
    } else {
      continue;  // Bye while draining, or an unsolicited frame
    }
    if (id >= static_cast<std::uint64_t>(conn.count)) break;  // corrupt correlation
    const auto i = static_cast<std::int64_t>(id);
    while (conn.published.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    const std::int64_t recv = now_ns();
    ++answered;
    conn.last_recv_ns = recv;
    RequestRecord rec = conn.records[static_cast<std::size_t>(i)];
    if (!account_answer(frame, conn.nodes[static_cast<std::size_t>(i)], cfg.expected,
                        &conn.tally)) {
      continue;
    }
    rec.recv_ns = recv;
    rec.service_ns = frame.result.latency_ns;
    conn.served.push_back(rec);
    if (conn.spans.enabled()) {
      const std::uint64_t request = (static_cast<std::uint64_t>(c) << 48) | id;
      const std::int64_t top = conn.spans.record("request", rec.due_ns, recv, kNoSpan, request);
      conn.spans.record("load.gen_lag", rec.due_ns, rec.sent_ns, top, request);
      const std::int64_t transport =
          conn.spans.record("transport", rec.sent_ns, recv, top, request);
      // The service span's duration is exact (the Result frame's
      // enqueue-to-dispatch latency); it is placed at the end of the round
      // trip, so the transport span's self time is RTT minus service time.
      conn.spans.record("serve.service", std::max(rec.sent_ns, recv - rec.service_ns), recv,
                        transport, request);
    }
  }
  conn.tally.transport_errors += conn.count - answered;
}

}  // namespace

PhaseResult run_phase(const std::string& socket_path, const PhaseConfig& cfg) {
  PhaseResult out;
  out.spans = SpanLog(cfg.trace);
  const int conns = std::max(1, cfg.connections);
  const auto total =
      std::max<std::int64_t>(1, std::llround(cfg.rate * cfg.seconds));
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < conns; ++c) {
    auto conn = std::make_unique<Connection>();
    conn->count = total / conns + (c < total % conns ? 1 : 0);
    conn->records.resize(static_cast<std::size_t>(conn->count));
    conn->nodes.resize(static_cast<std::size_t>(conn->count));
    conn->served.reserve(static_cast<std::size_t>(conn->count));
    conn->spans = SpanLog(cfg.trace);
    conn->tally.attempted = conn->count;
    connections.push_back(std::move(conn));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    Connection& conn = *connections[static_cast<std::size_t>(c)];
    if (conn.count == 0) continue;
    if (!conn.client.connect(socket_path)) {
      conn.tally.transport_errors += conn.count;
      continue;
    }
    threads.emplace_back([&conn, &cfg, c] { receive_loop(conn, cfg, c); });
  }
  // Start the schedule a little in the future so every thread is up.
  out.begin_ns = now_ns() + 2'000'000;
  send_loop(connections, cfg, total, out.begin_ns);
  for (std::thread& t : threads) t.join();

  for (auto& conn : connections) {
    conn->client.close();
    out.tally += conn->tally;
    out.served.insert(out.served.end(), conn->served.begin(), conn->served.end());
    out.spans.append(conn->spans);
    out.last_recv_ns = std::max(out.last_recv_ns, conn->last_recv_ns);
    if (conn->count > 0) {
      out.last_due_ns = std::max(out.last_due_ns, conn->records.back().due_ns);
    }
  }
  return out;
}

ZipfNodes::ZipfNodes(std::int64_t n, double theta, std::uint64_t seed)
    : cdf_(static_cast<std::size_t>(n)), node_of_rank_(static_cast<std::size_t>(n)) {
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[static_cast<std::size_t>(i)] = total;
    node_of_rank_[static_cast<std::size_t>(i)] = i;
  }
  std::uint64_t state = seed;
  for (std::int64_t i = n - 1; i > 0; --i) {
    state = volcal::splitmix64(state + 0x9e3779b97f4a7c15ull);
    const auto j = static_cast<std::int64_t>(state % static_cast<std::uint64_t>(i + 1));
    std::swap(node_of_rank_[static_cast<std::size_t>(i)], node_of_rank_[static_cast<std::size_t>(j)]);
  }
}

std::int64_t ZipfNodes::sample(std::uint64_t* rng) const {
  *rng = volcal::splitmix64(*rng + 0x9e3779b97f4a7c15ull);
  const double u = static_cast<double>(*rng >> 11) * (1.0 / 9007199254740992.0) * cdf_.back();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::int64_t>(it - cdf_.begin(),
                                           static_cast<std::int64_t>(cdf_.size()) - 1);
  return node_of_rank_[static_cast<std::size_t>(rank)];
}

}  // namespace volbench
