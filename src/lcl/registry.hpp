// ProblemRegistry — one string-keyed catalogue of the paper's problem
// families, replacing the hand-wired per-binary switch statements in the
// bench and example mains.
//
// Each entry bundles, type-erased behind a uniform interface:
//   * an instance generator (family-shaped: n_target is mapped onto the
//     family's natural size parameter, so node_count() is approximate);
//   * the paper's upper-bound algorithm for the family (the one Table 1
//     measures), runnable on both the plain and the recording execution so
//     registry entries compose with the trace/replay oracle;
//   * the LCL verifier (Def. 2.6 conjunction over nodes);
//   * the paper's Θ-claims for the four complexity measures.
//
// Bench/example binaries resolve entries by name (`--filter <name>`), tests
// iterate all() to get per-family coverage for free.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/mutation.hpp"
#include "labels/instances.hpp"
#include "lcl/lcl.hpp"
#include "obs/trace.hpp"
#include "plan/probe_plan.hpp"
#include "runtime/execution.hpp"

namespace volcal {

namespace io {
class Snapshot;
}  // namespace io

// A generated instance with its problem machinery erased to:
// graph/ids + solve (output encoded as int) + verify (decodes internally).
class ErasedInstance {
 public:
  struct Impl {
    std::shared_ptr<const void> held;  // keeps the typed instance alive
    std::string family;                // registry key the instance belongs to
    GraphView graph{};
    const IdAssignment* ids = nullptr;
    std::function<int(Execution&)> solve;
    std::function<int(obs::TracedExecution&)> solve_traced;
    std::function<VerifyResult(const std::vector<int>&)> verify;
    // Serializers for the held typed instance; save_text is null for
    // families without a text form (the binary snapshot covers everything).
    std::function<void(const std::string& path)> save_snapshot;
    std::function<void(std::ostream& os)> save_text;
    // Dynamic-graph hooks (graph/mutation.hpp), installed by the one erase()
    // wiring point so generated, text-loaded and snapshot-loaded instances
    // all mutate identically.  `mutate` applies a batch copy-on-write and
    // returns a freshly wired instance (optionally reporting the structural
    // endpoints); `mutate_naive` is the Builder-based reference path the
    // differential harness compares against; `propose_mutation` draws a
    // deterministic in-domain batch for fuzzing and load generation.
    std::function<ErasedInstance(const MutationBatch&, std::vector<NodeIndex>*)> mutate;
    std::function<ErasedInstance(const MutationBatch&)> mutate_naive;
    std::function<MutationBatch(std::uint64_t seed, int rewires, int label_updates)>
        propose_mutation;
  };

  explicit ErasedInstance(Impl impl) : impl_(std::move(impl)) {}

  // The registry key this instance was built for ("leaf-coloring", ...).
  const std::string& family() const { return impl_.family; }

  GraphView graph() const { return impl_.graph; }
  const IdAssignment& ids() const { return *impl_.ids; }
  NodeIndex node_count() const { return impl_.graph.node_count(); }

  // Writes the instance as a versioned binary snapshot (io/snapshot.hpp);
  // io::load_instance() round-trips it into an equivalent ErasedInstance.
  void save_snapshot(const std::string& path) const { impl_.save_snapshot(path); }

  // The line-oriented text form (io/serialize.hpp), where the family has one.
  bool has_text_format() const { return static_cast<bool>(impl_.save_text); }
  void save_text(std::ostream& os) const { impl_.save_text(os); }

  // The family's upper-bound algorithm from one start node; the returned int
  // is the encoded output label (encoding is entry-private — only verify()
  // needs to understand it).
  int solve(Execution& exec) const { return impl_.solve(exec); }
  int solve(obs::TracedExecution& exec) const { return impl_.solve_traced(exec); }

  // Whole-graph verification of encoded per-node outputs (Def. 2.6).  The
  // family's Problem — with its Hierarchy, for the hierarchical families — is
  // built for the call and dropped after it: instances hold no verifier state.
  VerifyResult verify(const std::vector<int>& encoded_outputs) const {
    return impl_.verify(encoded_outputs);
  }

  // --- dynamic graphs (graph/mutation.hpp) ---------------------------------

  // Applies `batch` copy-on-write: this instance (and every view borrowed
  // from it) is untouched; the returned instance owns fresh graph storage
  // under a fresh StorageToken and the mutated labels, and is wired through
  // the same solver/verifier closures.  IDs never change under a batch, so
  // it shares this instance's owned ID table; a table borrowed from a
  // snapshot mapping is copied (and checked) once, on the first mutation,
  // so no generation keeps the mapping or an older generation alive.  If
  // `touched` is non-null it receives the batch's structural endpoints,
  // sorted — the set ViewCache::invalidate_region certifies distances
  // against.  Throws std::invalid_argument on an invalid rewire or a label
  // channel the family does not carry.
  ErasedInstance mutated(const MutationBatch& batch,
                         std::vector<NodeIndex>* touched = nullptr) const {
    return impl_.mutate(batch, touched);
  }

  // Reference path for the differential harness: identical semantics replayed
  // through Graph::Builder (port bijectivity re-validated from scratch).
  ErasedInstance mutated_naive(const MutationBatch& batch) const {
    return impl_.mutate_naive(batch);
  }

  // Draws a deterministic, in-domain batch: up to `rewires` pairwise
  // non-adjacent degree-1 leaves re-hung on nodes outside the leaf set, plus
  // `label_updates` channel writes within the family's claim domains.  Fewer
  // rewires than requested are returned when the instance has too few
  // eligible leaves.
  MutationBatch propose_mutation(std::uint64_t seed, int rewires,
                                 int label_updates) const {
    return impl_.propose_mutation(seed, rewires, label_updates);
  }

 private:
  Impl impl_;
};

struct RegistryEntry {
  std::string name;       // stable key, e.g. "leaf-coloring"
  std::string title;      // human name, e.g. "LeafColoring (Def. 3.4)"
  std::string theta;      // paper Θ-claims for the four measures
  std::string algorithm;  // which upper-bound algorithm solve() runs

  // The family's probe plan (plan/probe_plan.hpp), chosen at registration:
  // what the solver's access pattern is, statically.  IndependentStarts by
  // default; a family declaring BatchedBall{r} promises its solve() is
  // exactly explore_ball(v, r) with the ball size as output, which lets the
  // engine run whole-graph sweeps on the batched backend (the fuzz
  // differential cross-checks the promise on every case).
  ProbePlan plan = ProbePlan::independent();

  // Builds an instance of roughly n_target nodes (clamped to the family's
  // sane range; exact size is family-shaped).  Equivalent to
  // make_variant(n_target, seed, 0).
  std::function<ErasedInstance(NodeIndex n_target, std::uint64_t seed)> make;

  // Shape mutators for the differential-fuzzing harness (src/check/): each
  // family exposes `variants` instance shapes, 0 being make()'s canonical one
  // and 1..variants-1 degree/shape perturbations (random full trees,
  // caterpillars, pseudo-forest cycles, unbalanced defects, mixed per-level
  // backbone lengths, skewed splits) — every one inside what the family's
  // upper-bound algorithm and verifier are specified for, so solve+verify
  // must stay clean on all of them.  Requires 0 <= variant < variants.
  int variants = 1;
  std::function<ErasedInstance(NodeIndex n_target, std::uint64_t seed, int variant)>
      make_variant;
};

// Wraps an externally built typed instance (text reader, snapshot loader,
// tests) in the named family's solver/verifier machinery — the same closures
// the family's generator path installs.  Throws std::invalid_argument if the
// family is unknown or uses a different labeling type.  `keep_alive` is
// retained for the instance's lifetime (the snapshot loader parks the file
// mapping here; see io/snapshot.hpp for the adoption contract).
ErasedInstance erase_instance(std::string_view family, LeafColoringInstance&& inst,
                              std::shared_ptr<const void> keep_alive = nullptr);
ErasedInstance erase_instance(std::string_view family, BalancedTreeInstance&& inst,
                              std::shared_ptr<const void> keep_alive = nullptr);
ErasedInstance erase_instance(std::string_view family, HybridInstance&& inst,
                              std::shared_ptr<const void> keep_alive = nullptr);
ErasedInstance erase_instance(std::string_view family, HHInstance&& inst,
                              std::shared_ptr<const void> keep_alive = nullptr);

// Rehydrates a loaded snapshot into an ErasedInstance of its recorded family:
// the CSR graph and the ID table stay zero-copy views into the mapping (kept
// alive by the instance), label tables are decoded into the typed labeling.
ErasedInstance load_snapshot_instance(io::Snapshot&& snap);

class ProblemRegistry {
 public:
  static const ProblemRegistry& global();

  const std::vector<RegistryEntry>& entries() const { return entries_; }

  // Exact-name lookup; nullptr if absent.
  const RegistryEntry* find(std::string_view name) const;

  // Case-sensitive substring filter; an empty filter matches everything.
  std::vector<const RegistryEntry*> match(std::string_view filter) const;

 private:
  ProblemRegistry();

  std::vector<RegistryEntry> entries_;
};

}  // namespace volcal
