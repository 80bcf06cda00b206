#include "runtime/view_cache.hpp"

#include <cstring>

#include "util/env.hpp"

namespace volcal {

bool CacheConfig::policy_from_name(const char* name, CachePolicy* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "off") == 0 || name[0] == '\0' || std::strcmp(name, "0") == 0) {
    *out = CachePolicy::Off;
    return true;
  }
  if (std::strcmp(name, "shared") == 0) {
    *out = CachePolicy::Shared;
    return true;
  }
  return false;
}

CacheConfig CacheConfig::from_env() {
  CacheConfig config;
  if (const auto policy = env::raw("VOLCAL_CACHE")) {
    // Unrecognized values keep the safe default (Off) rather than aborting a
    // bench run over a typo — but loudly, exactly once: `VOLCAL_CACHE=sharde`
    // silently running uncached wastes a whole measurement session.
    CachePolicy parsed = CachePolicy::Off;
    if (policy_from_name(policy->c_str(), &parsed)) {
      config.policy = parsed;
    } else {
      env::warn_invalid("VOLCAL_CACHE", *policy, "not one of off|shared",
                        "policy off");
    }
  }
  // 1 TiB cap: far above any real budget, far below size_t overflow.
  if (const auto mb = env::positive_int("VOLCAL_CACHE_MB", std::int64_t{1} << 20,
                                        "default budget 256 MiB")) {
    config.byte_budget = env::mb_to_bytes(*mb);
  }
  return config;
}

}  // namespace volcal
