#include "runtime/view_cache.hpp"

#include <cstring>

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

}  // namespace volcal
