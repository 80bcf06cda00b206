// Tests of the benchmark's own machinery: metric-name grammar, failure
// accounting (an injected wrong label and injected sheds must show up in
// failed_frac), and span self-time arithmetic.
//
// Run with `python3 volbench/run.py --self-test` from the repository root.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <set>

#include "core.hpp"
#include "openloop.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"
#include "volcal/serve.hpp"
#include "workloads.hpp"

namespace volbench {
namespace {

using namespace volcal;

TEST(MetricNames, GrammarAcceptsAndRejects) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("labels.generate_s.hh-2-3"));
  EXPECT_TRUE(valid_metric_name("0ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_lead"));
  EXPECT_FALSE(valid_metric_name(".lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));

  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("B/node"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("bytes per node"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricNames, EveryReportedNameIsValidAndUnique) {
  std::set<std::string> seen;
  for (const std::string& name : kEndToEnd) {
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  for (const auto& [name, unit] : per_layer_metrics()) {
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_TRUE(valid_unit(unit)) << name;
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
}

TEST(MetricNames, ReportRejectsBadAndDuplicateNames) {
  Report r;
  r.add("setup_s", "s", 0.5, 3);
  EXPECT_THROW(r.add("setup_s", "s", 0.6, 3), std::invalid_argument);
  EXPECT_THROW(r.add("bad name", "s", 1.0, 1), std::invalid_argument);
  EXPECT_THROW(r.add("ok_name", "bad unit", 1.0, 1), std::invalid_argument);
  EXPECT_THROW(r.add("nan_value", "s", std::nan(""), 1), std::invalid_argument);
  const std::string line = r.json_line(true, 10, 0, {"setup_s"});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_THROW(r.json_line(true, 10, 0, {"missing"}), std::logic_error);
}

TEST(FailedFrac, CountsEveryFailureKindAgainstAttempted) {
  Tally t;
  t.attempted = 200;
  EXPECT_EQ(t.failed_frac(), 0.0);
  t.shed = 1;
  t.wrong_labels = 2;
  t.transport_errors = 3;
  t.invalid = 4;
  t.violations = 5;
  t.rejected_updates = 6;
  t.nondeterministic = 7;
  EXPECT_EQ(t.failed(), 28);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 28.0 / 200.0);
}

TEST(FailedFrac, AccountAnswerClassifiesFrames) {
  const std::vector<int> expected = {5, 6, 7};
  Tally t;
  serve::Frame shed;
  shed.type = serve::FrameType::Shed;
  EXPECT_FALSE(account_answer(shed, 0, &expected, &t));
  EXPECT_EQ(t.shed, 1);

  serve::Frame ok;
  ok.type = serve::FrameType::Result;
  ok.result.label = 6;
  EXPECT_TRUE(account_answer(ok, 1, &expected, &t));
  EXPECT_FALSE(account_answer(ok, 2, &expected, &t));  // expected 7
  EXPECT_EQ(t.wrong_labels, 1);
  EXPECT_TRUE(account_answer(ok, 2, nullptr, &t));  // unchecked under churn

  serve::Frame invalid = ok;
  invalid.result.status = serve::QueryStatus::InvalidNode;
  EXPECT_FALSE(account_answer(invalid, 1, &expected, &t));
  EXPECT_EQ(t.invalid, 1);
  EXPECT_EQ(t.failed(), 3);
}

// A real service on a small ball-4 instance, driven by the open-loop
// generator over every node once.
class ServedBall : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::create_directories(".bench_out");
    socket_ = ".bench_out/volbench_test-" + std::to_string(::getpid()) + ".sock";
    const RegistryEntry* entry = ProblemRegistry::global().find("ball-4");
    ASSERT_NE(entry, nullptr);
    instance_ = std::make_shared<const ErasedInstance>(entry->make(512, 3));
    expected_ = run_at_all_nodes(instance_->graph(), instance_->ids(),
                                 [this](Execution& e) { return instance_->solve(e); })
                    .output;
    serve::ServeConfig cfg;
    cfg.threads = 2;
    cfg.cache = CacheConfig{CachePolicy::Shared};
    service_ = std::make_unique<serve::QueryService>(serve::make_serve_target(instance_), cfg);
    server_ = std::make_unique<serve::SocketServer>();
    ASSERT_TRUE(server_->start(*service_, socket_));
  }
  void TearDown() override {
    service_->drain_and_stop();
    server_->stop();
  }

  PhaseResult every_node(const std::vector<int>& expected) {
    PhaseConfig cfg;
    cfg.connections = 2;
    cfg.rate = 20000.0;
    cfg.seconds = static_cast<double>(expected.size()) / cfg.rate;
    cfg.expected = &expected;
    cfg.node_of = [](int c, std::int64_t i, std::uint64_t*) { return i * 2 + c; };
    return run_phase(socket_, cfg);
  }

  std::string socket_;
  std::shared_ptr<const ErasedInstance> instance_;
  std::vector<int> expected_;
  std::unique_ptr<serve::QueryService> service_;
  std::unique_ptr<serve::SocketServer> server_;
};

TEST_F(ServedBall, CorrectLabelsCountNoFailure) {
  const PhaseResult res = every_node(expected_);
  EXPECT_EQ(res.tally.attempted, static_cast<std::int64_t>(expected_.size()));
  EXPECT_EQ(res.tally.failed(), 0);
  EXPECT_EQ(res.served.size(), expected_.size());
}

TEST_F(ServedBall, InjectedWrongLabelCountsOnce) {
  std::vector<int> corrupted = expected_;
  corrupted[17] += 1;
  const PhaseResult res = every_node(corrupted);
  EXPECT_EQ(res.tally.wrong_labels, 1);
  EXPECT_EQ(res.tally.failed(), 1);
  EXPECT_DOUBLE_EQ(res.tally.failed_frac(), 1.0 / static_cast<double>(expected_.size()));
}

TEST_F(ServedBall, ShedRequestsCountAsFailed) {
  // A drained service refuses every query; the transport answers each with
  // a Shed frame.
  service_->drain_and_stop();
  const PhaseResult res = every_node(expected_);
  EXPECT_EQ(res.tally.shed, static_cast<std::int64_t>(expected_.size()));
  EXPECT_DOUBLE_EQ(res.tally.failed_frac(), 1.0);
  EXPECT_TRUE(res.served.empty());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log(true);
  const auto root = log.record("root", 0, 100);
  log.record("a", 10, 30, root);
  log.record("b", 20, 40, root);   // overlaps a: the union counts once
  log.record("c", 90, 120, root);  // clipped to the parent's end
  const auto d = log.record("d", 50, 70, root);
  log.record("e", 55, 60, d);
  const std::vector<std::int64_t> self = log.self_ns();
  EXPECT_EQ(self[0], 100 - 30 - 20 - 10);  // [10,40) + [50,70) + [90,100)
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 15);
  EXPECT_EQ(self[5], 5);

  const auto by_name = log.self_by_name();
  EXPECT_EQ(by_name.at("root").first, 40);
  EXPECT_EQ(by_name.at("root").second, 1);
}

TEST(Spans, AppendRebasesParentsAndDisabledLogsRecordNothing) {
  SpanLog a(true);
  a.record("x", 0, 10);
  SpanLog b(true);
  const auto p = b.record("p", 0, 50);
  b.record("child", 10, 20, p, 7);
  a.append(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_EQ(a.spans()[2].request, 7u);
  EXPECT_EQ(a.self_ns()[1], 40);

  SpanLog off(false);
  EXPECT_EQ(off.record("x", 0, 1), kNoSpan);
  { SpanLog::Scope s(off, "y"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(StepBest, SumsEachStepsFastestRepeat) {
  StepBest best;
  best.add({3.0, 1.0, 5.0});
  best.add({2.0, 4.0, 6.0});
  best.add({9.0, 9.0, 0.5});
  EXPECT_EQ(best.repeats(), 3);
  EXPECT_DOUBLE_EQ(best.total(), 2.0 + 1.0 + 0.5);
}

TEST(Percentiles, NearestRankAndWindowedLowerQuartile) {
  EXPECT_EQ(percentile({3, 1, 2, 4}, 0.5), 2.0);
  EXPECT_EQ(percentile({3, 1, 2, 4}, 0.99), 4.0);
  EXPECT_EQ(median({3, 1, 2, 4}), 2.5);
  std::vector<std::vector<double>> windows;
  for (int w = 1; w <= 4; ++w) windows.push_back(std::vector<double>(100, 10.0 * w));
  windows.push_back(std::vector<double>(5, 1.0));  // too few samples: skipped
  EXPECT_EQ(windowed_percentile(windows, 0.5), 10.0);
  EXPECT_EQ(windowed_percentile(windows, 1.0), 10.0);
  EXPECT_EQ(windowed_mean(windows), 10.0);
}

}  // namespace
}  // namespace volbench
