#include "labels/ids.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/hash.hpp"

namespace volcal {

namespace {

// n IDs drawn from [1, max] are "dense" when max <= 8n + 64: a bitmap over
// [0, max] then costs at most about one byte per ID, far below a hash set.
// Sparser spaces (alpha > 1) fall back to hashing or sorting.
bool dense_id_space(NodeId max_id, std::size_t n) { return max_id <= 8 * NodeId{n} + 64; }

class IdBitmap {
 public:
  explicit IdBitmap(NodeId max_id) : words_(max_id / 64 + 1, 0) {}

  // Marks `id`; false if it was already marked.
  bool insert(NodeId id) {
    std::uint64_t& word = words_[id / 64];
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace

IdAssignment::IdAssignment(std::vector<NodeId> ids) {
  if (ids.empty()) return;
  const NodeId max_id = *std::max_element(ids.begin(), ids.end());
  bool duplicate = false;
  if (dense_id_space(max_id, ids.size())) {
    IdBitmap seen(max_id);
    for (const NodeId id : ids) duplicate |= !seen.insert(id);
  } else {
    std::vector<NodeId> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    duplicate = std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
  }
  if (duplicate) throw std::invalid_argument("IdAssignment: duplicate node ID");
  auto table = std::make_shared<const std::vector<NodeId>>(std::move(ids));
  data_ = table->data();
  count_ = static_cast<NodeIndex>(table->size());
  owned_ = std::move(table);
}

IdAssignment IdAssignment::sequential(NodeIndex n) {
  std::vector<NodeId> ids(n);
  for (NodeIndex v = 0; v < n; ++v) ids[v] = static_cast<NodeId>(v) + 1;
  return IdAssignment(std::move(ids));
}

IdAssignment IdAssignment::shuffled(NodeIndex n, std::uint64_t seed, double alpha) {
  if (alpha < 1.0) throw std::invalid_argument("IdAssignment: alpha must be >= 1");
  const auto space = static_cast<NodeId>(std::llround(std::pow(static_cast<double>(n), alpha)));
  const NodeId limit = std::max<NodeId>(space, static_cast<NodeId>(n));
  // Rejection-sample distinct IDs from [1, limit]; deterministic in seed.  The
  // draw sequence is the same whichever membership structure is used.
  const auto count = static_cast<std::size_t>(n);
  std::vector<NodeId> ids;
  ids.reserve(count);
  const std::uint64_t key = mix64(seed, 0x1d5u);  // mix64(seed, 0x1d5u, i) == mix64(key, i)
  std::uint64_t counter = 0;
  auto sample = [&](auto&& insert) {
    while (ids.size() < count) {
      const NodeId candidate = 1 + mix64(key, counter++) % limit;
      if (insert(candidate)) ids.push_back(candidate);
    }
  };
  if (dense_id_space(limit, count)) {
    IdBitmap used(limit);
    sample([&](NodeId id) { return used.insert(id); });
  } else {
    std::unordered_set<NodeId> used;
    used.reserve(count);
    sample([&](NodeId id) { return used.insert(id).second; });
  }
  return IdAssignment(std::move(ids));
}

}  // namespace volcal
