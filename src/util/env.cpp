#include "util/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <utility>

namespace volcal::env {

namespace {

std::mutex& warn_mu() {
  static std::mutex mu;
  return mu;
}

std::set<std::string>& warned_names() {
  static std::set<std::string> names;
  return names;
}

int warn_count = 0;

}  // namespace

void warn_invalid(const char* name, const std::string& value,
                  const std::string& reason, const std::string& fallback) {
  std::lock_guard lock(warn_mu());
  if (!warned_names().insert(name).second) return;
  ++warn_count;
  std::fprintf(stderr, "volcal: ignoring %s=\"%s\" (%s); using %s\n", name,
               value.c_str(), reason.c_str(), fallback.c_str());
}

std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

std::optional<std::int64_t> parse_positive_int(const char* text, std::int64_t max_value,
                                               std::string* reason) {
  const auto reject = [&](std::string why) -> std::optional<std::int64_t> {
    if (reason != nullptr) *reason = std::move(why);
    return std::nullopt;
  };
  if (*text == '\0') return reject("empty value");
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return reject("not an integer");
  if (errno == ERANGE || parsed > max_value) {
    return reject("exceeds maximum " + std::to_string(max_value));
  }
  if (parsed <= 0) return reject("must be a positive integer");
  return parsed;
}

std::optional<std::int64_t> positive_int(const char* name, std::int64_t max_value,
                                         const std::string& fallback_desc) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  std::string reason;
  const auto parsed = parse_positive_int(v, max_value, &reason);
  if (!parsed) warn_invalid(name, v, reason, fallback_desc);
  return parsed;
}

std::size_t mb_to_bytes(std::int64_t mb) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const auto unsigned_mb = static_cast<std::uint64_t>(mb);
  if (unsigned_mb > (kMax >> 20)) return (kMax >> 20) << 20;
  return static_cast<std::size_t>(unsigned_mb) << 20;
}

int warning_count_for_testing() {
  std::lock_guard lock(warn_mu());
  return warn_count;
}

void reset_warnings_for_testing() {
  std::lock_guard lock(warn_mu());
  warned_names().clear();
  warn_count = 0;
}

}  // namespace volcal::env
