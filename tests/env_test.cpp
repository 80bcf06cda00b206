// Strict environment parsing (util/env.hpp): whole-string integer parses,
// one-time-per-variable warnings on misconfiguration, overflow-safe MiB →
// bytes conversion, and the strict behavior of the VOLCAL_THREADS /
// VOLCAL_BACKEND consumers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "plan/probe_plan.hpp"
#include "util/env.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env::reset_warnings_for_testing();
    ::unsetenv("VOLCAL_TEST_KNOB");
  }
  void TearDown() override {
    ::unsetenv("VOLCAL_TEST_KNOB");
    env::reset_warnings_for_testing();
  }
};

TEST_F(EnvTest, UnsetIsSilentlyAbsent) {
  EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 100, "default"), std::nullopt);
  EXPECT_EQ(env::raw("VOLCAL_TEST_KNOB"), std::nullopt);
  EXPECT_EQ(env::warning_count_for_testing(), 0);
}

TEST_F(EnvTest, ValidValuesParseWithoutWarning) {
  ASSERT_EQ(setenv("VOLCAL_TEST_KNOB", "8", 1), 0);
  EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), 8);
  ASSERT_EQ(setenv("VOLCAL_TEST_KNOB", "256", 1), 0);
  EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), 256);
  EXPECT_EQ(env::warning_count_for_testing(), 0);
}

TEST_F(EnvTest, RejectsGarbageWithOneWarningPerVariable) {
  for (const char* bad : {"", "abc", "8 threads", "12junk", "0", "-3", "257",
                          "99999999999999999999"}) {
    env::reset_warnings_for_testing();
    ASSERT_EQ(setenv("VOLCAL_TEST_KNOB", bad, 1), 0);
    EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), std::nullopt)
        << "value \"" << bad << "\" should be rejected";
    EXPECT_EQ(env::warning_count_for_testing(), 1) << "value \"" << bad << "\"";
    // The same variable never warns twice in one process.
    EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), std::nullopt);
    EXPECT_EQ(env::warning_count_for_testing(), 1);
  }
}

// The string-level parse behind positive_int and volcal_serve --cache-mb:
// strict, with a reason on rejection, and silent (warning is the caller's).
TEST_F(EnvTest, ParsePositiveIntRejectsJunkWithAReason) {
  constexpr std::int64_t kMaxMb = std::int64_t{1} << 20;
  EXPECT_EQ(env::parse_positive_int("32", kMaxMb), 32);
  for (const char* bad : {"lots", "-5", "0", "12junk"}) {
    std::string why;
    EXPECT_EQ(env::parse_positive_int(bad, kMaxMb, &why), std::nullopt)
        << "value \"" << bad << "\" should be rejected";
    EXPECT_FALSE(why.empty()) << "value \"" << bad << "\"";
  }
  std::string why;
  EXPECT_EQ(env::parse_positive_int("1048577", kMaxMb, &why), std::nullopt);
  EXPECT_EQ(why, "exceeds maximum 1048576");
  EXPECT_EQ(env::warning_count_for_testing(), 0);
}

TEST_F(EnvTest, MbToBytesIsOverflowSafe) {
  EXPECT_EQ(env::mb_to_bytes(1), std::size_t{1} << 20);
  EXPECT_EQ(env::mb_to_bytes(256), std::size_t{256} << 20);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // Values at and beyond the representable range clamp instead of wrapping.
  EXPECT_EQ(env::mb_to_bytes(std::numeric_limits<std::int64_t>::max()),
            (kMax >> 20) << 20);
  EXPECT_GE(env::mb_to_bytes(std::numeric_limits<std::int64_t>::max()),
            env::mb_to_bytes(256));
}

TEST_F(EnvTest, ThreadCountParsesStrictly) {
  // Explicit request wins regardless of the environment.
  ASSERT_EQ(setenv("VOLCAL_THREADS", "7", 1), 0);
  EXPECT_EQ(detail::resolve_thread_count(3), 3);
  EXPECT_EQ(detail::resolve_thread_count(0), 7);
  // Garbage falls back to serial — loudly (one warning), not silently.
  env::reset_warnings_for_testing();
  ASSERT_EQ(setenv("VOLCAL_THREADS", "eight", 1), 0);
  EXPECT_EQ(detail::resolve_thread_count(0), 1);
  EXPECT_EQ(env::warning_count_for_testing(), 1);
  ASSERT_EQ(unsetenv("VOLCAL_THREADS"), 0);
  EXPECT_EQ(detail::resolve_thread_count(0), 1);
}

TEST_F(EnvTest, BackendParsesStrictly) {
  ASSERT_EQ(setenv("VOLCAL_BACKEND", "basic", 1), 0);
  EXPECT_EQ(backend_from_env(), ExecBackend::Basic);
  env::reset_warnings_for_testing();
  ASSERT_EQ(setenv("VOLCAL_BACKEND", "basick", 1), 0);
  EXPECT_EQ(backend_from_env(), ExecBackend::Batched);  // safe default kept
  EXPECT_EQ(env::warning_count_for_testing(), 1);
  ASSERT_EQ(unsetenv("VOLCAL_BACKEND"), 0);
  EXPECT_EQ(backend_from_env(), ExecBackend::Batched);
}

}  // namespace
}  // namespace volcal
