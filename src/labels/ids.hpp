// Unique node identifiers (paper Section 2.1): every node carries a unique ID
// from [n^alpha] for a fixed alpha >= 1.  IDs are the names algorithms see;
// NodeIndex is the internal array index and is never revealed by the query
// model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace volcal {

using NodeId = std::uint64_t;

class IdAssignment {
 public:
  IdAssignment() = default;
  // Takes ownership of `ids` after checking them for duplicates.  The table
  // is immutable from here on, so copies of the assignment share it.
  explicit IdAssignment(std::vector<NodeId> ids);

  // Borrow an externally owned ID array (e.g. an mmap-ed snapshot section).
  // Same lifetime contract as Graph::adopt: the storage must outlive the
  // assignment and every copy of it.
  static IdAssignment adopt(const NodeId* ids, NodeIndex n) {
    IdAssignment a;
    a.data_ = ids;
    a.count_ = n;
    return a;
  }

  NodeId id_of(NodeIndex v) const { return data_[v]; }
  NodeIndex node_count() const { return count_; }

  // True when the table lives on the heap, shared by every copy; false when
  // it is borrowed (adopt) or empty.
  bool owned() const { return owned_ != nullptr; }

  // The full assignment as a borrowed span (owned vector or adopted mapping);
  // what the snapshot writer serializes.
  std::span<const NodeId> span() const { return {data_, static_cast<std::size_t>(count_)}; }

  // Sequential IDs 1..n (the canonical assignment used in the paper's
  // lower-bound constructions, e.g. Prop. 3.12 where the root has ID 1).
  static IdAssignment sequential(NodeIndex n);

  // A pseudorandom permutation of 1..ceil(n^alpha) restricted to n values;
  // deterministic in `seed`.
  static IdAssignment shuffled(NodeIndex n, std::uint64_t seed, double alpha = 1.0);

 private:
  std::shared_ptr<const std::vector<NodeId>> owned_;
  const NodeId* data_ = nullptr;  // owned_->data() or the adopted array
  NodeIndex count_ = 0;
};

}  // namespace volcal
