// Interpretation of LabelUpdate channels (graph/mutation.hpp) for each typed
// labeling.  The graph layer only transports (node, channel, value) triples;
// this header is where a channel lands in a concrete label vector — and where
// a channel a labeling does not carry is rejected.
//
// Values stay inside the labelings' claim domains.  Port claims are claims
// (Def. 3.1 — nothing forces them to describe a real tree), so any port value
// a one-byte label holds, [0, kMaxPortLabel], is admissible and dangling
// claims resolve to ⊥ exactly as generated inconsistencies do.  Levels take
// the same byte range; the solvers classify out-of-band level claims as
// inconsistencies, same as shape-variant defects.  Color / side are bits.  A
// value outside its channel's domain is rejected, never truncated.
#pragma once

#include <stdexcept>
#include <string>

#include "graph/mutation.hpp"
#include "labels/instances.hpp"

namespace volcal {

namespace detail {

[[noreturn]] inline void throw_bad_channel(LabelChannel c, const char* labeling) {
  throw std::invalid_argument(std::string("apply_label_update: channel '") +
                              label_channel_name(c) + "' is not carried by " + labeling +
                              " labels");
}

inline void check_bit(LabelChannel c, int value) {
  if (value != 0 && value != 1) {
    throw std::invalid_argument(std::string("apply_label_update: channel '") +
                                label_channel_name(c) + "' takes values {0, 1}, got " +
                                std::to_string(value));
  }
}

// Port claims and levels: anything a PortLabel byte holds.
inline PortLabel check_byte_claim(LabelChannel c, int value) {
  if (!fits_port_label(value)) {
    throw std::invalid_argument(std::string("apply_label_update: channel '") +
                                label_channel_name(c) + "' takes values [0, " +
                                std::to_string(kMaxPortLabel) + "], got " +
                                std::to_string(value));
  }
  return static_cast<PortLabel>(value);
}

// The three channels every labeling carries.  Returns false if `c` is not a
// tree channel (the caller then tries its own channels).
inline bool apply_tree_channel(TreeLabeling& t, NodeIndex v, LabelChannel c, int value) {
  switch (c) {
    case LabelChannel::Parent:
      t.parent[static_cast<std::size_t>(v)] = check_byte_claim(c, value);
      return true;
    case LabelChannel::Left:
      t.left[static_cast<std::size_t>(v)] = check_byte_claim(c, value);
      return true;
    case LabelChannel::Right:
      t.right[static_cast<std::size_t>(v)] = check_byte_claim(c, value);
      return true;
    default:
      return false;
  }
}

inline bool apply_balanced_channel(BalancedTreeLabeling& b, NodeIndex v, LabelChannel c,
                                   int value) {
  if (apply_tree_channel(b.tree, v, c, value)) return true;
  switch (c) {
    case LabelChannel::LeftNbr:
      b.left_nbr[static_cast<std::size_t>(v)] = check_byte_claim(c, value);
      return true;
    case LabelChannel::RightNbr:
      b.right_nbr[static_cast<std::size_t>(v)] = check_byte_claim(c, value);
      return true;
    default:
      return false;
  }
}

}  // namespace detail

inline void apply_label_update(ColoredTreeLabeling& l, const LabelUpdate& u) {
  if (detail::apply_tree_channel(l.tree, u.node, u.channel, u.value)) return;
  if (u.channel == LabelChannel::InColor) {
    detail::check_bit(u.channel, u.value);
    l.color[static_cast<std::size_t>(u.node)] = static_cast<Color>(u.value);
    return;
  }
  detail::throw_bad_channel(u.channel, "colored-tree");
}

inline void apply_label_update(BalancedTreeLabeling& l, const LabelUpdate& u) {
  if (detail::apply_balanced_channel(l, u.node, u.channel, u.value)) return;
  detail::throw_bad_channel(u.channel, "balanced-tree");
}

inline void apply_label_update(HybridLabeling& l, const LabelUpdate& u) {
  if (detail::apply_balanced_channel(l.bal, u.node, u.channel, u.value)) return;
  switch (u.channel) {
    case LabelChannel::InColor:
      detail::check_bit(u.channel, u.value);
      l.color[static_cast<std::size_t>(u.node)] = static_cast<Color>(u.value);
      return;
    case LabelChannel::Level:
      l.level_in[static_cast<std::size_t>(u.node)] =
          detail::check_byte_claim(u.channel, u.value);
      return;
    default:
      detail::throw_bad_channel(u.channel, "hybrid");
  }
}

inline void apply_label_update(HHLabeling& l, const LabelUpdate& u) {
  if (u.channel == LabelChannel::Side) {
    detail::check_bit(u.channel, u.value);
    l.side[static_cast<std::size_t>(u.node)] = static_cast<std::uint8_t>(u.value);
    return;
  }
  apply_label_update(l.hybrid, u);
}

// Applies every label update of `batch` to `labels`.  Node indices are
// assumed pre-validated (apply_mutation checks them against the graph).
template <typename Labels>
void apply_label_updates(Labels& labels, const MutationBatch& batch) {
  for (const LabelUpdate& u : batch.label_updates) apply_label_update(labels, u);
}

}  // namespace volcal
