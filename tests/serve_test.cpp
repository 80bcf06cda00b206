// Query-service layer (src/serve/): wire protocol, admission control, drain
// ordering, latency accounting, and the end-to-end hot-swap exactness the
// token-based storage identity exists for.
//
// The load-bearing contract: a label served by QueryService equals the
// offline engine's output for that node, bit for bit — through the batched
// backend, through cache hits, and across snapshot swaps (where the old
// pointer-keyed cache identity could alias a recycled mmap address; see
// tests/view_cache_test.cpp RemapAtSameAddressDoesNotServeStaleBalls for the
// unit-level pin).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perf/json.hpp"
#include "volcal/io.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"
#include "volcal/serve.hpp"

namespace volcal::serve {
namespace {

namespace fs = std::filesystem;

TEST(ServeProtocol, FramesRoundTripThroughAChunkedStream) {
  QueryFrame q;
  q.request_id = 0x1122334455667788ull;
  q.node = -7;
  ResultFrame r;
  r.request_id = 42;
  r.status = QueryStatus::InvalidNode;
  r.node = 1;
  r.label = -3;
  r.volume = 1LL << 40;
  r.distance = 4;
  r.queries = 99;
  r.latency_ns = 123456789;
  ShedFrame s;
  s.request_id = 7;
  s.retry_after_ms = 50;
  ByeFrame b;
  b.reason = 0;

  std::vector<std::uint8_t> stream;
  for (const auto& bytes :
       {encode_query(q), encode_result(r), encode_shed(s), encode_bye(b)}) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  // Feed one byte at a time: the reader must buffer partials across reads.
  FrameReader reader;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    Frame f;
    while (reader.next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_FALSE(reader.corrupt());

  EXPECT_EQ(frames[0].type, FrameType::Query);
  EXPECT_EQ(frames[0].query.request_id, q.request_id);
  EXPECT_EQ(frames[0].query.node, q.node);

  EXPECT_EQ(frames[1].type, FrameType::Result);
  EXPECT_EQ(frames[1].result.request_id, r.request_id);
  EXPECT_EQ(frames[1].result.status, QueryStatus::InvalidNode);
  EXPECT_EQ(frames[1].result.label, r.label);
  EXPECT_EQ(frames[1].result.volume, r.volume);
  EXPECT_EQ(frames[1].result.distance, r.distance);
  EXPECT_EQ(frames[1].result.queries, r.queries);
  EXPECT_EQ(frames[1].result.latency_ns, r.latency_ns);

  EXPECT_EQ(frames[2].type, FrameType::Shed);
  EXPECT_EQ(frames[2].shed.request_id, s.request_id);
  EXPECT_EQ(frames[2].shed.retry_after_ms, s.retry_after_ms);

  EXPECT_EQ(frames[3].type, FrameType::Bye);
  EXPECT_EQ(frames[3].bye.reason, 0);
}

TEST(ServeProtocol, UpdateFramesRoundTripThroughAChunkedStream) {
  UpdateFrame u;
  u.request_id = 0xabcdef0123456789ull;
  u.batch.rewires.push_back({3, 9});
  u.batch.rewires.push_back({17, 2});
  u.batch.label_updates.push_back({4, LabelChannel::InColor, 1});
  u.batch.label_updates.push_back({-2, LabelChannel::Level, -5});
  UpdateResultFrame ur;
  ur.request_id = 77;
  ur.status = UpdateStatus::Invalid;
  ur.cache_evicted = 1ull << 33;
  ur.cache_retained = 12345;
  ur.flushed = 1;
  ur.apply_ns = -9;  // sign must survive the wire

  std::vector<std::uint8_t> stream = encode_update(u);
  const std::vector<std::uint8_t> result_bytes = encode_update_result(ur);
  stream.insert(stream.end(), result_bytes.begin(), result_bytes.end());

  FrameReader reader;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {  // byte-at-a-time: partial buffering
    reader.feed(&byte, 1);
    Frame f;
    while (reader.next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_FALSE(reader.corrupt());

  EXPECT_EQ(frames[0].type, FrameType::Update);
  EXPECT_EQ(frames[0].update.request_id, u.request_id);
  ASSERT_EQ(frames[0].update.batch.rewires.size(), 2u);
  EXPECT_EQ(frames[0].update.batch.rewires[0].leaf, 3);
  EXPECT_EQ(frames[0].update.batch.rewires[0].new_parent, 9);
  EXPECT_EQ(frames[0].update.batch.rewires[1].leaf, 17);
  ASSERT_EQ(frames[0].update.batch.label_updates.size(), 2u);
  EXPECT_EQ(frames[0].update.batch.label_updates[0].node, 4);
  EXPECT_EQ(frames[0].update.batch.label_updates[0].channel, LabelChannel::InColor);
  EXPECT_EQ(frames[0].update.batch.label_updates[0].value, 1);
  EXPECT_EQ(frames[0].update.batch.label_updates[1].node, -2);
  EXPECT_EQ(frames[0].update.batch.label_updates[1].value, -5);

  EXPECT_EQ(frames[1].type, FrameType::UpdateResult);
  EXPECT_EQ(frames[1].update_result.request_id, ur.request_id);
  EXPECT_EQ(frames[1].update_result.status, UpdateStatus::Invalid);
  EXPECT_EQ(frames[1].update_result.cache_evicted, ur.cache_evicted);
  EXPECT_EQ(frames[1].update_result.cache_retained, ur.cache_retained);
  EXPECT_EQ(frames[1].update_result.flushed, 1);
  EXPECT_EQ(frames[1].update_result.apply_ns, -9);
}

TEST(ServeProtocol, UpdateFrameBoundsAreEnforcedBothWays) {
  // Encoder side: a batch whose wire size exceeds kMaxUpdateFrameBytes must
  // throw, not emit a frame the peer will condemn.
  UpdateFrame huge;
  huge.batch.rewires.resize(70000);  // 70000 * 16 bytes > 1 MiB
  EXPECT_THROW(encode_update(huge), std::length_error);

  // Reader side: an Update type byte admits lengths beyond kMaxFrameBytes
  // (like Stats) but only up to the update bound.
  {
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxUpdateFrameBytes + 1));
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Update));
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Declared counts that do not match the payload length: corrupt, never a
    // partial decode.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, 17);  // type + id + counts, but counts claim content
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Update));
    wire::put_u64(bytes, 1);
    wire::put_u32(bytes, 5);  // 5 rewires that are not present
    wire::put_u32(bytes, 0);
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
}

TEST(ServeProtocol, OversizedOrMalformedFramesMarkTheStreamCorrupt) {
  {
    // Declared length beyond kMaxFrameBytes: corruption for every type but
    // Stats.  The reader withholds judgement until the type byte arrives
    // (a lone oversized prefix could still become a legal Stats frame), then
    // condemns the stream.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxFrameBytes + 1));
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_FALSE(reader.corrupt());  // prefix alone: undecided, not corrupt
    const auto type = static_cast<std::uint8_t>(FrameType::Result);
    reader.feed(&type, 1);
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Even a Stats type byte cannot legitimize a length beyond the Stats
    // bound.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxStatsFrameBytes + 1));
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Stats));
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Right length prefix, wrong payload size for the type.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, 3);
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Query));
    wire::put_u8(bytes, 0);
    wire::put_u8(bytes, 0);
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
}

TEST(ServeProtocol, StatsFramesRoundTripAndMayExceedTheQueryFrameBound) {
  // A stats payload bigger than kMaxFrameBytes (but under the stats bound)
  // must pass: the reader admits oversized frames for the Stats type only.
  const std::string big(kMaxFrameBytes + 100, 'x');
  std::vector<std::uint8_t> stream = encode_stats_request(9);
  const std::vector<std::uint8_t> stats =
      encode_stats(9, "{\"payload\": \"" + big + "\"}");
  stream.insert(stream.end(), stats.begin(), stats.end());

  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_TRUE(reader.next(&f));
  EXPECT_EQ(f.type, FrameType::StatsRequest);
  EXPECT_EQ(f.stats_request.request_id, 9u);
  ASSERT_TRUE(reader.next(&f));
  EXPECT_EQ(f.type, FrameType::Stats);
  EXPECT_EQ(f.stats.request_id, 9u);
  EXPECT_NE(f.stats.json.find(big), std::string::npos);
  EXPECT_FALSE(reader.corrupt());

  // The same oversized length under a Query type byte stays corruption.
  FrameReader strict;
  std::vector<std::uint8_t> bytes;
  wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxFrameBytes + 1));
  wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Query));
  strict.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(strict.next(&f));
  EXPECT_TRUE(strict.corrupt());
}

// Collects completion callbacks so tests can wait for a specific number of
// responses while the service is still running.
class ResultCollector {
 public:
  std::function<void(const QueryResult&)> sink() {
    return [this](const QueryResult& r) {
      std::lock_guard lock(mu_);
      results_[r.request_id] = r;
      cv_.notify_all();
    };
  }

  void wait_for(std::size_t count) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return results_.size() >= count; });
  }

  std::map<std::uint64_t, QueryResult> take() {
    std::lock_guard lock(mu_);
    return results_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, QueryResult> results_;
};

std::vector<int> offline_labels(const ErasedInstance& inst) {
  const auto sweep = run_at_all_nodes(inst.graph(), inst.ids(),
                                      [&](Execution& e) { return inst.solve(e); });
  return sweep.output;
}

ServeTarget target_for(const std::string& family, NodeIndex n, std::uint64_t seed) {
  const RegistryEntry* entry = ProblemRegistry::global().find(family);
  EXPECT_NE(entry, nullptr) << family;
  return make_serve_target(
      std::make_shared<const ErasedInstance>(entry->make(n, seed)));
}

// Served labels == offline sweep labels, on both execution paths.  The
// ball-4 family takes the fused batched path (its plan is batchable), the
// leaf-coloring family the per-request solve() path.
TEST(QueryService, ServedLabelsMatchTheOfflineSweep) {
  for (const char* family : {"ball-4", "leaf-coloring"}) {
    SCOPED_TRACE(family);
    ServeTarget target = target_for(family, 600, 7);
    const std::vector<int> expected = offline_labels(*target.instance);
    const auto n = static_cast<std::int64_t>(expected.size());

    ServeConfig config;
    config.threads = 4;
    config.queue_capacity = static_cast<std::size_t>(2 * n);
    config.cache.policy = CachePolicy::Shared;
    QueryService service(std::move(target), config);

    ResultCollector collector;
    // Two rounds over every node: the second is served warm (cache hits for
    // the batchable family) and must answer identically.
    for (std::int64_t round = 0; round < 2; ++round) {
      for (std::int64_t v = 0; v < n; ++v) {
        const auto id = static_cast<std::uint64_t>(round * n + v);
        ASSERT_EQ(service.submit(id, v, collector.sink()), Admission::Accepted);
      }
    }
    service.drain_and_stop();

    const auto results = collector.take();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(2 * n));
    for (const auto& [id, r] : results) {
      const auto v = static_cast<std::int64_t>(id) % n;
      EXPECT_EQ(r.status, QueryStatus::Ok);
      EXPECT_EQ(r.label, expected[static_cast<std::size_t>(v)])
          << "node " << v << " id " << id;
      EXPECT_GE(r.volume, 1);
      EXPECT_GE(r.latency_ns, 0);
    }
    const ServeCounters counters = service.counters();
    EXPECT_EQ(counters.accepted, 2 * n);
    EXPECT_EQ(counters.completed, 2 * n);
    EXPECT_EQ(counters.shed, 0);
    EXPECT_EQ(counters.invalid, 0);
    if (std::string(family) == "ball-4") {
      // Round two re-queries every center: the shared cache must have hits.
      EXPECT_GT(service.cache_stats().hits, 0);
    }
    const stats::Summary latency = service.latency_summary();
    EXPECT_EQ(latency.count, static_cast<std::size_t>(2 * n));
    EXPECT_LE(latency.median, latency.p95);
    EXPECT_LE(latency.p95, latency.p99);
  }
}

TEST(QueryService, InvalidNodesAreFlaggedNotExecuted) {
  ServeTarget target = target_for("ball-4", 200, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 1;
  QueryService service(std::move(target), config);

  ResultCollector collector;
  ASSERT_EQ(service.submit(1, -1, collector.sink()), Admission::Accepted);
  ASSERT_EQ(service.submit(2, n, collector.sink()), Admission::Accepted);
  ASSERT_EQ(service.submit(3, 0, collector.sink()), Admission::Accepted);
  service.drain_and_stop();

  const auto results = collector.take();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results.at(1).status, QueryStatus::InvalidNode);
  EXPECT_EQ(results.at(2).status, QueryStatus::InvalidNode);
  EXPECT_EQ(results.at(1).label, 0);
  EXPECT_EQ(results.at(3).status, QueryStatus::Ok);
  EXPECT_EQ(service.counters().invalid, 2);
}

// Deterministic shed: block the single worker inside a completion callback,
// fill the queue to capacity, and the next submit must shed.
TEST(QueryService, ShedsWhenTheQueueIsFullAndRecovers) {
  ServeTarget target = target_for("ball-4", 200, 7);
  ServeConfig config;
  config.threads = 1;
  config.batch_max = 1;  // the worker holds exactly one request at a time
  config.queue_capacity = 2;
  QueryService service(std::move(target), config);

  std::promise<void> worker_entered;
  std::promise<void> release_worker;
  std::shared_future<void> release = release_worker.get_future().share();
  ASSERT_EQ(service.submit(0, 0,
                           [&](const QueryResult&) {
                             worker_entered.set_value();
                             release.wait();
                           }),
            Admission::Accepted);
  worker_entered.get_future().wait();  // the worker is now parked off-queue

  ResultCollector collector;
  EXPECT_EQ(service.submit(1, 1, collector.sink()), Admission::Accepted);
  EXPECT_EQ(service.submit(2, 2, collector.sink()), Admission::Accepted);
  // Queue holds 2/2: admission control must shed, not grow the backlog.
  EXPECT_EQ(service.submit(3, 3, collector.sink()), Admission::Shed);
  EXPECT_EQ(service.counters().shed, 1);

  release_worker.set_value();
  service.drain_and_stop();
  // The shed request never ran; both accepted ones did.
  const auto results = collector.take();
  EXPECT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.count(1) == 1 && results.count(2) == 1);
  const ServeCounters counters = service.counters();
  EXPECT_EQ(counters.accepted, 3);
  EXPECT_EQ(counters.completed, 3);
}

// Drain ordering: every accepted callback has run by the time
// drain_and_stop() returns, and later submits are Stopped (not Shed — the
// client must not retry).
TEST(QueryService, DrainCompletesEveryAcceptedRequestThenRefuses) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(n);
  QueryService service(std::move(target), config);

  std::atomic<int> completions{0};
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v,
                             [&](const QueryResult&) {
                               completions.fetch_add(1, std::memory_order_relaxed);
                             }),
              Admission::Accepted);
  }
  service.drain_and_stop();
  EXPECT_EQ(completions.load(), n);
  EXPECT_EQ(service.submit(999999, 0, nullptr), Admission::Stopped);
  // Idempotent: a second drain is a no-op.
  service.drain_and_stop();
}

// The end-to-end ABA scenario the storage token fixes: serve snapshot A,
// hot-swap to snapshot B of the same shape (old mapping unmapped, new one
// plausibly at the recycled address), and every post-swap answer must match
// B's offline labels — never A's cached balls.
TEST(QueryService, HotSwapUnderWarmCacheServesTheNewSnapshotExactly) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("volcal-serve-test-" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(dir);
  const std::string path_a = (dir / "a.vsnap").string();
  const std::string path_b = (dir / "b.vsnap").string();

  // ball-4 labels are pure ball volumes, and the default instance shape is a
  // complete binary tree whose structure ignores the seed — so use variant 1
  // (random full binary tree), where seeds 7 and 11 shape different trees.
  const RegistryEntry* entry = ProblemRegistry::global().find("ball-4");
  ASSERT_NE(entry, nullptr);
  entry->make_variant(600, 7, 1).save_snapshot(path_a);
  entry->make_variant(600, 11, 1).save_snapshot(path_b);

  ServeConfig config;
  config.threads = 4;
  config.queue_capacity = 4096;
  config.cache.policy = CachePolicy::Shared;

  std::vector<int> expected_a, expected_b;
  {
    const ErasedInstance a = io::load_instance(path_a);
    expected_a = offline_labels(a);
    const ErasedInstance b = io::load_instance(path_b);
    expected_b = offline_labels(b);
  }
  const auto n = static_cast<std::int64_t>(expected_a.size());
  ASSERT_EQ(expected_b.size(), static_cast<std::size_t>(n));
  // Seeds 7 and 11 must disagree somewhere, or the swap check is vacuous.
  ASSERT_NE(expected_a, expected_b);

  QueryService service(
      make_serve_target(
          std::make_shared<const ErasedInstance>(io::load_instance(path_a))),
      config);

  // Warm the cache on A across every node.
  ResultCollector before;
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v, before.sink()),
              Admission::Accepted);
  }
  before.wait_for(static_cast<std::size_t>(n));
  for (const auto& [id, r] : before.take()) {
    ASSERT_EQ(r.label, expected_a[static_cast<std::size_t>(id)]) << "node " << id;
  }

  // Swap to B while the service is live.  The old target's mapping is
  // released here (no other holder), so B's mmap may land on A's address —
  // the exact pointer-ABA recycling the token identity defends against.
  service.swap_target(make_serve_target(
      std::make_shared<const ErasedInstance>(io::load_instance(path_b))));

  ResultCollector after;
  for (std::int64_t v = 0; v < n; ++v) {
    const auto id = static_cast<std::uint64_t>(n + v);
    ASSERT_EQ(service.submit(id, v, after.sink()), Admission::Accepted);
  }
  service.drain_and_stop();
  const auto results = after.take();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
  for (const auto& [id, r] : results) {
    const auto v = static_cast<std::int64_t>(id) - n;
    ASSERT_EQ(r.label, expected_b[static_cast<std::size_t>(v)])
        << "post-swap node " << v << " served a stale answer";
  }
  EXPECT_EQ(service.counters().swaps, 1);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Live mutation apply: after apply_mutations the service serves the mutated
// instance bit-for-bit, retained cache entries keep serving (no full flush on
// a localized delta), and an invalid batch is rejected whole with the served
// target untouched.
TEST(QueryService, AppliedMutationsServeTheMutatedGraphExactly) {
  ServeTarget target = target_for("ball-4", 600, 7);
  const std::shared_ptr<const ErasedInstance> inst = target.instance;
  const std::vector<int> expected = offline_labels(*inst);
  const auto n = static_cast<std::int64_t>(expected.size());

  ServeConfig config;
  config.threads = 4;
  config.queue_capacity = static_cast<std::size_t>(2 * n);
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);

  // Warm the shared cache across every node on the pre-mutation graph.
  ResultCollector before;
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v, before.sink()),
              Admission::Accepted);
  }
  before.wait_for(static_cast<std::size_t>(n));
  for (const auto& [id, r] : before.take()) {
    ASSERT_EQ(r.label, expected[static_cast<std::size_t>(id)]) << "node " << id;
  }

  // One leaf rewire + two label writes: a localized delta.  The mutated
  // oracle is the instance's own mutate path, the same one
  // check_mutation_case pins against the naive rebuild.
  const MutationBatch batch = inst->propose_mutation(/*seed=*/123, /*rewires=*/1,
                                                     /*label_updates=*/2);
  ASSERT_FALSE(batch.empty());
  const ErasedInstance mutated = inst->mutated(batch);
  const std::vector<int> expected_mut = offline_labels(mutated);

  const MutationOutcome mo = service.apply_mutations(batch);
  ASSERT_TRUE(mo.ok) << mo.error;
  EXPECT_FALSE(mo.flushed);
  EXPECT_GE(mo.apply_ns, 0);
  // A radius-4 plan with one rewire touches a small region of a 600-node
  // tree: some entries die, most survive.
  EXPECT_GT(mo.cache_evicted, 0u);
  EXPECT_GT(mo.cache_retained, mo.cache_evicted);

  const std::int64_t hits_before_requery = service.cache_stats().hits;
  ResultCollector after;
  for (std::int64_t v = 0; v < n; ++v) {
    const auto id = static_cast<std::uint64_t>(n + v);
    ASSERT_EQ(service.submit(id, v, after.sink()), Admission::Accepted);
  }
  after.wait_for(static_cast<std::size_t>(n));
  for (const auto& [id, r] : after.take()) {
    const auto v = static_cast<std::int64_t>(id) - n;
    ASSERT_EQ(r.status, QueryStatus::Ok);
    ASSERT_EQ(r.label, expected_mut[static_cast<std::size_t>(v)])
        << "post-mutation node " << v << " served a stale answer";
  }
  // The retained entries actually served: the re-query round hit the cache.
  EXPECT_GT(service.cache_stats().hits, hits_before_requery);

  // An invalid batch (rewire of a non-leaf: node 0 is the root of the
  // complete binary tree, degree > 1) is rejected whole.
  MutationBatch bad;
  bad.rewires.push_back({0, 1});
  const MutationOutcome rejected = service.apply_mutations(bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_FALSE(rejected.error.empty());

  // Served answers are unchanged by the rejected batch.
  ResultCollector still;
  ASSERT_EQ(service.submit(static_cast<std::uint64_t>(3 * n), 1, still.sink()),
            Admission::Accepted);
  still.wait_for(1);
  EXPECT_EQ(still.take().at(static_cast<std::uint64_t>(3 * n)).label,
            expected_mut[1]);

  service.drain_and_stop();

  // The mutation counters made it into the registry snapshot.
  const obs::MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.counter("serve.mutations"), 1);
  EXPECT_EQ(snap.counter("serve.mutate.cache_evicted"),
            static_cast<std::int64_t>(mo.cache_evicted));
  EXPECT_EQ(snap.counter("serve.mutate.cache_retained"),
            static_cast<std::int64_t>(mo.cache_retained));
}

// A non-batchable target never fills the cache, even under Shared: its
// requests run the family's own solver per start.  Its updates therefore
// skip the region invalidation (0 evicted, 0 retained, no flush) and the
// answers stay exact.
TEST(QueryService, MutationOfASolverDrivenTargetSkipsTheCache) {
  ServeTarget target = target_for("leaf-coloring", 400, 5);
  ASSERT_FALSE(target.plan.batchable());
  const std::shared_ptr<const ErasedInstance> inst = target.instance;
  const auto n = static_cast<std::int64_t>(inst->node_count());

  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(2 * n);
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  const auto query_all = [&](std::uint64_t base, const std::vector<int>& expected) {
    ResultCollector results;
    for (std::int64_t v = 0; v < n; ++v) {
      ASSERT_EQ(service.submit(base + static_cast<std::uint64_t>(v), v, results.sink()),
                Admission::Accepted);
    }
    results.wait_for(static_cast<std::size_t>(n));
    for (const auto& [id, r] : results.take()) {
      const auto v = static_cast<std::size_t>(id - base);
      ASSERT_EQ(r.status, QueryStatus::Ok);
      ASSERT_EQ(r.label, expected[v]) << "node " << v;
    }
  };
  query_all(0, offline_labels(*inst));

  const MutationBatch batch = inst->propose_mutation(/*seed=*/77, /*rewires=*/1,
                                                     /*label_updates=*/2);
  ASSERT_FALSE(batch.empty());
  const MutationOutcome mo = service.apply_mutations(batch);
  ASSERT_TRUE(mo.ok) << mo.error;
  EXPECT_EQ(mo.cache_evicted, 0u);
  EXPECT_EQ(mo.cache_retained, 0u);
  EXPECT_FALSE(mo.flushed);

  query_all(static_cast<std::uint64_t>(n), offline_labels(inst->mutated(batch)));
  const CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.hits, 0);
  EXPECT_EQ(cache.misses, 0);
  EXPECT_EQ(cache.inserted_bytes, 0);
  service.drain_and_stop();
}

// Label updates carry one-byte claims: a port claim or level outside
// [0, 255] rejects the whole batch with the served target untouched, and 255
// itself applies.
TEST(QueryService, LabelUpdatesOutsideOneByteAreRejectedWhole) {
  ServeTarget target = target_for("hybrid-2", 200, 3);
  const std::shared_ptr<const ErasedInstance> inst = target.instance;
  const auto n = static_cast<std::int64_t>(inst->node_count());
  ServeConfig config;
  config.threads = 1;
  config.queue_capacity = static_cast<std::size_t>(n);
  QueryService service(std::move(target), config);
  std::uint64_t next_id = 0;
  const auto expect_served = [&](const std::vector<int>& expected) {
    ResultCollector results;
    const std::uint64_t base = next_id;
    for (std::int64_t v = 0; v < n; ++v) {
      ASSERT_EQ(service.submit(next_id++, v, results.sink()), Admission::Accepted);
    }
    results.wait_for(static_cast<std::size_t>(n));
    for (const auto& [id, r] : results.take()) {
      const auto v = static_cast<std::size_t>(id - base);
      ASSERT_EQ(r.label, expected[v]) << "node " << v;
    }
  };

  for (const LabelUpdate& bad : {LabelUpdate{4, LabelChannel::Parent, 256},
                                 LabelUpdate{4, LabelChannel::Parent, -1},
                                 LabelUpdate{4, LabelChannel::Level, 256}}) {
    MutationBatch batch;
    batch.label_updates.push_back({2, LabelChannel::Level, 3});  // valid, never applied
    batch.label_updates.push_back(bad);
    const MutationOutcome mo = service.apply_mutations(batch);
    EXPECT_FALSE(mo.ok) << label_channel_name(bad.channel) << " = " << bad.value;
    EXPECT_NE(mo.error.find("[0, 255]"), std::string::npos) << mo.error;
  }
  EXPECT_EQ(service.counters().swaps, 0);
  expect_served(offline_labels(*inst));

  MutationBatch max_claims;
  max_claims.label_updates.push_back({4, LabelChannel::Parent, 255});
  max_claims.label_updates.push_back({4, LabelChannel::Level, 255});
  const MutationOutcome mo = service.apply_mutations(max_claims);
  EXPECT_TRUE(mo.ok) << mo.error;
  EXPECT_EQ(service.counters().swaps, 1);
  expect_served(offline_labels(inst->mutated(max_claims)));
  service.drain_and_stop();
}

// --- Observability ---------------------------------------------------------

// stats_json() is the payload every consumer parses (Stats frame, volcal_top,
// --stats-log); its counters must agree with the typed accessors and its
// percentiles must be ordered.
TEST(QueryService, StatsJsonReconcilesWithTypedCountersAfterDrain) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 4;
  config.queue_capacity = static_cast<std::size_t>(n);
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);

  ResultCollector collector;
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v, collector.sink()),
              Admission::Accepted);
  }
  service.drain_and_stop();

  std::string err;
  const perf::JsonValue doc = perf::parse_json(service.stats_json(), &err);
  ASSERT_FALSE(doc.is_null()) << err;
  EXPECT_EQ(doc.string_at("kind"), "serve-stats");

  const ServeCounters counters = service.counters();
  EXPECT_EQ(doc.int_at("accepted"), counters.accepted);
  EXPECT_EQ(doc.int_at("completed"), counters.completed);
  EXPECT_EQ(doc.int_at("shed"), counters.shed);
  EXPECT_EQ(doc.int_at("invalid"), counters.invalid);
  EXPECT_EQ(doc.int_at("queue_depth"), 0);
  EXPECT_EQ(doc.int_at("in_flight"), 0);
  EXPECT_GT(doc.number_at("uptime_seconds"), 0.0);

  const perf::JsonValue* lat = doc.find("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->int_at("count"), n);
  EXPECT_LE(lat->number_at("p50_ns"), lat->number_at("p95_ns"));
  EXPECT_LE(lat->number_at("p95_ns"), lat->number_at("p99_ns"));

  // Registry sub-object: per-family volume histogram with one entry per
  // completed request, and the admission counters under their metric names.
  const perf::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const perf::JsonValue* hists = metrics->find("histograms");
  ASSERT_NE(hists, nullptr);
  const perf::JsonValue* volume = hists->find("serve.volume.ball-4");
  ASSERT_NE(volume, nullptr) << "per-family volume histogram missing";
  EXPECT_EQ(volume->int_at("count"), n);
  EXPECT_GE(volume->int_at("min"), 1);
  const perf::JsonValue* counters_obj = metrics->find("counters");
  ASSERT_NE(counters_obj, nullptr);
  EXPECT_EQ(counters_obj->int_at("serve.accepted"), counters.accepted);
  EXPECT_EQ(counters_obj->int_at("serve.completed"), counters.completed);

  // The windowed summary covers the run we just finished (it all happened
  // well inside the default 10 s window).
  const stats::Summary window = service.window_latency_summary();
  EXPECT_EQ(window.count, static_cast<std::size_t>(n));
  EXPECT_LE(window.median, window.p95);
}

// Below the window ring's 2^16 capacity, and inside a window longer than the
// run, the since-start histogram and the exact window ring hold the same
// samples: count, min, max and mean agree exactly, and each histogram
// percentile lies at or at most 1/64 above the exact one.  An odd request
// count makes the exact median (midpoint of the two central values for even
// counts) a nearest-rank value, like the histogram's.
TEST(QueryService, SinceStartHistogramAgreesWithTheExactWindow) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(4 * n);
  config.stats_window_seconds = 3600.0;
  QueryService service(std::move(target), config);

  const std::int64_t requests = 3 * n + (n % 2 == 0 ? 1 : 0);
  ASSERT_EQ(requests % 2, 1);
  ResultCollector collector;
  for (std::int64_t i = 0; i < requests; ++i) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(i), i % n, collector.sink()),
              Admission::Accepted);
  }
  service.drain_and_stop();

  const stats::Summary since = service.latency_summary();
  const stats::Summary window = service.window_latency_summary();
  ASSERT_EQ(since.count, static_cast<std::size_t>(requests));
  ASSERT_EQ(window.count, since.count);
  EXPECT_EQ(since.min, window.min);
  EXPECT_EQ(since.max, window.max);
  EXPECT_NEAR(since.mean, window.mean, 1e-9 * window.mean);
  const std::pair<double, double> percentiles[] = {
      {since.median, window.median}, {since.p95, window.p95}, {since.p99, window.p99}};
  for (const auto& [approx, exact] : percentiles) {
    EXPECT_GE(approx, exact);
    EXPECT_LE(approx, exact + std::floor(exact / 64));
  }
  EXPECT_LE(since.min, since.median);
  EXPECT_LE(since.p99, since.max);

  // stats_json() renders the same two summaries.
  std::string err;
  const perf::JsonValue doc = perf::parse_json(service.stats_json(), &err);
  ASSERT_FALSE(doc.is_null()) << err;
  const perf::JsonValue* lat = doc.find("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->number_at("min_ns"), since.min);
  EXPECT_EQ(lat->number_at("p99_ns"), since.p99);
  EXPECT_EQ(lat->number_at("max_ns"), since.max);
  const perf::JsonValue* win = doc.find("window");
  ASSERT_NE(win, nullptr);
  const perf::JsonValue* win_lat = win->find("latency");
  ASSERT_NE(win_lat, nullptr);
  EXPECT_EQ(win_lat->int_at("count"), requests);
  EXPECT_EQ(win_lat->number_at("min_ns"), window.min);
}

// Slow-query log threshold edges: 0 records everything (bounded by
// capacity), a huge threshold records nothing, negative disables the log.
TEST(QueryService, SlowQueryLogThresholdEdges) {
  struct Case {
    std::int64_t threshold_ns;
    std::size_t capacity;
  };
  const Case cases[] = {
      {0, 1024},          // everything is slow
      {0, 16},            // everything is slow, capacity-bounded
      {INT64_MAX, 1024},  // nothing is slow
      {-1, 1024},         // log disabled
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.threshold_ns);
    ServeTarget target = target_for("ball-4", 200, 7);
    const auto n = static_cast<std::int64_t>(target.instance->node_count());
    ServeConfig config;
    config.threads = 2;
    config.queue_capacity = static_cast<std::size_t>(n);
    config.slow_threshold_ns = c.threshold_ns;
    config.slow_log_capacity = c.capacity;
    QueryService service(std::move(target), config);

    ResultCollector collector;
    for (std::int64_t v = 0; v < n; ++v) {
      ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v, collector.sink()),
                Admission::Accepted);
    }
    service.drain_and_stop();

    const std::vector<SlowQuery> slow = service.slow_queries();
    if (c.threshold_ns == 0) {
      // Latency >= 0 always holds, so every completion is recorded — newest
      // kept once the capacity bound kicks in.
      EXPECT_EQ(slow.size(), std::min(c.capacity, static_cast<std::size_t>(n)));
      for (const SlowQuery& q : slow) {
        EXPECT_GE(q.latency_ns, 0);
        EXPECT_GE(q.node, 0);
        EXPECT_LT(q.node, n);
      }
    } else {
      EXPECT_TRUE(slow.empty());
    }
    // The slow counter tracks threshold matches, not log retention: with
    // threshold 0 every completion counts even after eviction.
    std::string err;
    const perf::JsonValue doc = perf::parse_json(service.stats_json(), &err);
    ASSERT_FALSE(doc.is_null()) << err;
    EXPECT_EQ(doc.int_at("slow_queries"), c.threshold_ns == 0 ? n : 0);
  }
}

// An attached tracer collects one span per completed request with a
// monotone admit <= dequeue <= exec_end <= done timeline.
TEST(QueryService, TracerRecordsOneOrderedSpanPerRequest) {
  ServeTarget target = target_for("ball-4", 200, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeTracer tracer;
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(2 * n);
  config.cache.policy = CachePolicy::Shared;
  config.tracer = &tracer;
  QueryService service(std::move(target), config);

  ResultCollector collector;
  for (std::int64_t round = 0; round < 2; ++round) {
    for (std::int64_t v = 0; v < n; ++v) {
      const auto id = static_cast<std::uint64_t>(round * n + v);
      ASSERT_EQ(service.submit(id, v, collector.sink()), Admission::Accepted);
    }
  }
  service.drain_and_stop();

  const std::vector<RequestSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(2 * n));
  EXPECT_EQ(tracer.dropped(), 0);
  std::uint64_t seq_seen = 0;
  bool any_cache_hit = false;
  for (const RequestSpan& span : spans) {
    EXPECT_GE(span.seq, 1u);
    seq_seen = std::max(seq_seen, span.seq);
    EXPECT_LE(span.admit_ns, span.dequeue_ns);
    EXPECT_LE(span.dequeue_ns, span.exec_end_ns);
    EXPECT_LE(span.exec_end_ns, span.done_ns);
    EXPECT_GE(span.worker, 0);
    EXPECT_GE(span.volume, 1);
    EXPECT_FALSE(span.invalid);
    any_cache_hit |= span.cache_hit;
  }
  // Admission sequence numbers are dense 1..2n.
  EXPECT_EQ(seq_seen, static_cast<std::uint64_t>(2 * n));
  // Round two re-queries warm centers: some spans must be cache hits.
  EXPECT_TRUE(any_cache_hit);

  // The Chrome export accepts the collected spans.
  const fs::path trace_path =
      fs::temp_directory_path() /
      ("volcal-trace-test-" + std::to_string(::getpid()) + ".json");
  EXPECT_TRUE(write_serve_chrome_trace(trace_path.string(), spans));
  std::error_code ec;
  EXPECT_GT(fs::file_size(trace_path, ec), 0u);
  fs::remove(trace_path, ec);
}

// --- Socket transport ------------------------------------------------------

std::string unique_socket_path(const char* tag) {
  return (fs::temp_directory_path() /
          (std::string("volcal-") + tag + "-" +
           std::to_string(::getpid()) + "-" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
           ".sock"))
      .string();
}

// Disconnected clients must be reaped as they leave, not accumulated until
// stop(): a long-running server otherwise leaks one fd + thread object per
// connection ever accepted and eventually hits EMFILE.
TEST(SocketServer, ReapsDisconnectedClientsWhileRunning) {
  ServeTarget target = target_for("ball-4", 200, 7);
  ServeConfig config;
  config.threads = 1;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("reap");
  ASSERT_TRUE(server.start(service, path));

  for (std::uint64_t i = 0; i < 8; ++i) {
    ServeClient client;
    ASSERT_TRUE(client.connect(path));
    const ServeClient::QueryReply reply = client.query(0);
    ASSERT_TRUE(reply.ok);
    EXPECT_FALSE(reply.shed);
    client.bye();
  }
  // The reader threads notice the EOFs asynchronously; give them a moment.
  for (int spin = 0; spin < 500 && server.connection_count() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.connection_count(), 0u)
      << "disconnected connections held until stop()";

  // The acceptor is still alive after the churn: a fresh client round-trips.
  ServeClient again;
  ASSERT_TRUE(again.connect(path));
  const ServeClient::QueryReply reply = again.query(1);
  ASSERT_TRUE(reply.ok);
  EXPECT_FALSE(reply.shed);
  EXPECT_EQ(reply.result.node, 1);
  again.bye();

  service.drain_and_stop();
  server.stop();
}

// A client that submits queries but never reads responses fills its socket
// buffer.  The send timeout must convert that into a dropped connection —
// workers may block inside a completion callback for at most one timeout,
// and graceful drain still completes every accepted request.
TEST(SocketServer, SlowClientTimesOutInsteadOfWedgingDrain) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = 1 << 15;
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("slow");
  ASSERT_TRUE(server.start(service, path, /*write_timeout_ms=*/100));

  ServeClient client;
  ASSERT_TRUE(client.connect(path));
  // Far more responses than a Unix-socket buffer holds, and we never poll():
  // the pipelined fire-and-forget mode is exactly the misbehaving-client
  // shape this test needs.
  constexpr std::uint64_t kQueries = 20000;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    if (!client.post_query(i, static_cast<std::int64_t>(i) % n)) break;
  }

  // The load-bearing assertion is that this returns at all: before the send
  // timeout, a worker wedged forever inside write() and in_flight_ never
  // drained.  Every accepted request still completes (its callback runs;
  // the write is simply dropped on the closed connection).
  service.drain_and_stop();
  const ServeCounters counters = service.counters();
  EXPECT_EQ(counters.completed, counters.accepted);
  EXPECT_GT(counters.accepted, 0);

  client.close();
  server.stop();
}

// The Stats frame answers live, mid-load, on the reader thread — polls must
// round-trip while query traffic is in flight, return monotone counters
// across polls, and reconcile with the service's final numbers.
TEST(SocketServer, StatsFrameRoundTripsUnderConcurrentLoad) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = 1 << 14;
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("stats");
  ASSERT_TRUE(server.start(service, path));

  // Query clients: each drives its own connection synchronously.
  std::atomic<bool> load_ok{true};
  std::vector<std::thread> loaders;
  const int kLoaders = 3;
  const std::uint64_t kPerLoader = 400;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      ServeClient client;
      if (!client.connect(path)) {
        load_ok = false;
        return;
      }
      for (std::uint64_t i = 0; i < kPerLoader; ++i) {
        const std::int64_t node = static_cast<std::int64_t>(i) % n;
        const ServeClient::QueryReply reply = client.query(node);
        if (!reply.ok || reply.shed || reply.result.node != node) {
          load_ok = false;
          return;
        }
      }
      (void)t;
      client.bye();
    });
  }

  // Stats poller: interleaves Stats frames with the load, one fresh
  // connection per poll exactly like volcal_top.
  std::int64_t prev_completed = -1;
  std::int64_t polls_answered = 0;
  for (std::uint64_t poll = 1; poll <= 20; ++poll) {
    ServeClient probe;
    ASSERT_TRUE(probe.connect(path));
    std::string json;
    ASSERT_TRUE(probe.stats(&json));
    std::string err;
    const perf::JsonValue doc = perf::parse_json(json, &err);
    ASSERT_FALSE(doc.is_null()) << err;
    // Monotone counters across polls, consistent ordering within one.
    const std::int64_t completed = doc.int_at("completed");
    EXPECT_GE(completed, prev_completed);
    prev_completed = completed;
    EXPECT_GE(doc.int_at("accepted"), completed);
    if (const perf::JsonValue* lat = doc.find("latency")) {
      EXPECT_LE(lat->number_at("p50_ns"), lat->number_at("p99_ns"));
    }
    ++polls_answered;
    probe.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  for (auto& th : loaders) th.join();
  EXPECT_TRUE(load_ok.load());
  EXPECT_EQ(polls_answered, 20);

  service.drain_and_stop();
  // Final reconciliation: one last poll equals the service's own counters.
  const ServeCounters counters = service.counters();
  EXPECT_EQ(counters.completed, kLoaders * static_cast<std::int64_t>(kPerLoader));
  std::string err;
  const perf::JsonValue final_doc = perf::parse_json(service.stats_json(), &err);
  ASSERT_FALSE(final_doc.is_null()) << err;
  EXPECT_EQ(final_doc.int_at("completed"), counters.completed);
  EXPECT_EQ(final_doc.int_at("accepted"), counters.accepted);
  server.stop();
}

// Update frames over the wire: ServeClient::update applies a MutationBatch
// through a live server and every subsequent query serves the mutated graph;
// a rejected batch comes back Invalid without disturbing the stream.
TEST(SocketServer, UpdateFramesApplyMutationsOverTheWire) {
  ServeTarget target = target_for("ball-4", 300, 7);
  const std::shared_ptr<const ErasedInstance> inst = target.instance;
  const auto n = static_cast<std::int64_t>(inst->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(n);
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("update");
  ASSERT_TRUE(server.start(service, path));

  const MutationBatch batch = inst->propose_mutation(/*seed=*/99, /*rewires=*/2,
                                                     /*label_updates=*/1);
  ASSERT_FALSE(batch.empty());
  const std::vector<int> expected = offline_labels(*inst);
  const std::vector<int> expected_mut = offline_labels(inst->mutated(batch));

  ServeClient client;
  ASSERT_TRUE(client.connect(path));
  // Warm round on the pre-mutation graph: binds the shared cache to the old
  // token, so the update below takes the region invalidation, not the
  // cold-cache flush fallback.
  for (std::int64_t v = 0; v < n; ++v) {
    const ServeClient::QueryReply reply = client.query(v);
    ASSERT_TRUE(reply.ok);
    ASSERT_FALSE(reply.shed);
    ASSERT_EQ(reply.result.label, expected[static_cast<std::size_t>(v)])
        << "pre-update node " << v;
  }

  const ServeClient::UpdateReply applied = client.update(batch);
  ASSERT_TRUE(applied.ok);
  EXPECT_EQ(applied.result.status, UpdateStatus::Ok);
  EXPECT_EQ(applied.result.flushed, 0);
  EXPECT_GE(applied.result.apply_ns, 0);

  // The same connection keeps working: every node now answers from the
  // mutated graph.
  for (std::int64_t v = 0; v < n; ++v) {
    const ServeClient::QueryReply reply = client.query(v);
    ASSERT_TRUE(reply.ok);
    ASSERT_FALSE(reply.shed);
    ASSERT_EQ(reply.result.label, expected_mut[static_cast<std::size_t>(v)])
        << "post-update node " << v;
  }

  // A bad rewire (root is not a leaf) is rejected server-side; the reply is
  // typed Invalid and the connection stays usable.
  MutationBatch bad;
  bad.rewires.push_back({0, 1});
  const ServeClient::UpdateReply rejected = client.update(bad);
  ASSERT_TRUE(rejected.ok);
  EXPECT_EQ(rejected.result.status, UpdateStatus::Invalid);
  const ServeClient::QueryReply still = client.query(0);
  ASSERT_TRUE(still.ok);
  EXPECT_EQ(still.result.label, expected_mut[0]);

  client.bye();
  service.drain_and_stop();
  server.stop();
}

// The transport registers its connection metrics in the service's registry:
// the connection-count gauge tracks live clients and the total counter every
// accept since start.
TEST(SocketServer, ConnectionMetricsAppearInTheServiceRegistry) {
  ServeTarget target = target_for("ball-4", 200, 7);
  ServeConfig config;
  config.threads = 1;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("connmetrics");
  ASSERT_TRUE(server.start(service, path));

  ServeClient a, b;
  ASSERT_TRUE(a.connect(path));
  ASSERT_TRUE(b.connect(path));
  // One round-trip each so the accepts are definitely processed.
  ASSERT_TRUE(a.query(0).ok);
  ASSERT_TRUE(b.query(1).ok);

  obs::MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.counter("serve.connections_total"), 2);
  EXPECT_EQ(snap.gauge("serve.connections"), 2);

  a.close();
  b.close();
  for (int spin = 0; spin < 500 && server.connection_count() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  snap = service.metrics().snapshot();
  EXPECT_EQ(snap.gauge("serve.connections"), 0);
  EXPECT_EQ(snap.counter("serve.connections_total"), 2);

  service.drain_and_stop();
  server.stop();
  // After stop the gauge callback is re-pointed at a constant 0 — snapshots
  // of the outliving registry must not dereference the dead server.
  EXPECT_EQ(service.metrics().snapshot().gauge("serve.connections"), 0);
}

}  // namespace
}  // namespace volcal::serve
