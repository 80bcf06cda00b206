// Problem registry: the string-keyed catalogue behind the benches' --filter
// flag.  Every entry must produce a valid instance whose erased solver yields
// a verify_all-clean joint output, identically on plain and traced
// executions, deterministically in (n_target, seed).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <ostream>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "labels/generators.hpp"
#include "labels/label_mutation.hpp"
#include "lcl/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_runner.hpp"

namespace volcal {
namespace {

std::vector<NodeIndex> every_node(NodeIndex n) {
  std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
  for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
  return starts;
}

// The family's solver at every node, one thread.
std::vector<int> solve_everywhere(const ErasedInstance& inst) {
  const auto starts = every_node(inst.node_count());
  return ParallelRunner(1)
      .run_at(inst.graph(), inst.ids(), std::span<const NodeIndex>(starts),
              [&](Execution& exec) { return inst.solve(exec); })
      .output;
}

bool same_verdict(const VerifyResult& a, const VerifyResult& b) {
  return a.ok == b.ok && a.first_bad == b.first_bad && a.violations == b.violations;
}

// The four THC symbols R, B, D, X in the registry's packed output layout
// (bits 18..19 of the encoded int; see lcl/registry.cpp).
constexpr int kThcSymbols[] = {0 << 18, 1 << 18, 2 << 18, 3 << 18};

// Aggregate over single-node corruptions: every node in `targets` has its
// output replaced, alone, by each of the other three THC symbols, and the
// whole output is re-verified.
struct CorruptionTally {
  VerifyResult first;           // verdict for the first corruption tried
  std::int64_t detected = 0;    // corruptions verify() rejects
  std::int64_t violations = 0;  // summed over all corruptions
  std::int64_t first_bad = 0;   // summed over detected corruptions

  friend bool operator==(const CorruptionTally& a, const CorruptionTally& b) {
    return same_verdict(a.first, b.first) && a.detected == b.detected &&
           a.violations == b.violations && a.first_bad == b.first_bad;
  }
  friend std::ostream& operator<<(std::ostream& os, const CorruptionTally& t) {
    return os << "{first {" << t.first.ok << ", " << t.first.first_bad << ", "
              << t.first.violations << "}, detected " << t.detected << ", violations "
              << t.violations << ", first_bad " << t.first_bad << "}";
  }
};

CorruptionTally corrupt_each(const ErasedInstance& inst, const std::vector<int>& solved,
                             const std::vector<NodeIndex>& targets) {
  CorruptionTally t;
  bool first = true;
  for (const NodeIndex v : targets) {
    for (const int symbol : kThcSymbols) {
      std::vector<int> out = solved;
      int& slot = out[static_cast<std::size_t>(v)];
      if (slot == symbol) continue;
      slot = symbol;
      const VerifyResult r = inst.verify(out);
      if (first) t.first = r;
      first = false;
      if (!r.ok) {
        ++t.detected;
        t.first_bad += r.first_bad;
      }
      t.violations += r.violations;
    }
  }
  return t;
}

TEST(Registry, CataloguesTheExpectedFamilies) {
  const auto& reg = ProblemRegistry::global();
  ASSERT_GE(reg.entries().size(), 6u);
  std::set<std::string> names;
  for (const auto& e : reg.entries()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    EXPECT_FALSE(e.title.empty()) << e.name;
    EXPECT_FALSE(e.theta.empty()) << e.name;
    EXPECT_TRUE(static_cast<bool>(e.make)) << e.name;
  }
  for (const char* expected :
       {"leaf-coloring", "balanced-tree", "hthc-2", "hthc-3", "hybrid-2", "hh-2-3"}) {
    EXPECT_TRUE(names.count(expected)) << "missing entry " << expected;
  }
}

TEST(Registry, FindAndMatchSemantics) {
  const auto& reg = ProblemRegistry::global();
  const RegistryEntry* leaf = reg.find("leaf-coloring");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->name, "leaf-coloring");
  EXPECT_EQ(reg.find("no-such-problem"), nullptr);

  // match() is substring-based; empty matches everything.
  EXPECT_EQ(reg.match("").size(), reg.entries().size());
  EXPECT_EQ(reg.match("hthc").size(), 2u);
  EXPECT_EQ(reg.match("hh-2-3").size(), 1u);
  EXPECT_TRUE(reg.match("zzz-nothing").empty());
}

TEST(Registry, EveryEntrySolvesAndVerifies) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance inst = entry.make(/*n_target=*/400, /*seed=*/5);
    ASSERT_GT(inst.node_count(), 0) << entry.name;
    EXPECT_EQ(inst.graph().node_count(), inst.node_count()) << entry.name;

    const auto starts = every_node(inst.node_count());
    auto run = ParallelRunner(4).run_at(inst.graph(), inst.ids(),
                                        std::span<const NodeIndex>(starts),
                                        [&](Execution& exec) { return inst.solve(exec); });
    const VerifyResult verdict = inst.verify(run.output);
    EXPECT_TRUE(verdict.ok) << entry.name << ": " << verdict.violations
                            << " violations, first at node " << verdict.first_bad;
    EXPECT_GT(run.stats.max_volume, 0) << entry.name;
  }
}

TEST(Registry, TracedAndPlainSolversAgree) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance inst = entry.make(/*n_target=*/250, /*seed=*/23);
    const auto starts = every_node(inst.node_count());
    auto plain = ParallelRunner(1).run_at(inst.graph(), inst.ids(),
                                          std::span<const NodeIndex>(starts),
                                          [&](Execution& exec) { return inst.solve(exec); });
    obs::TraceRecorder recorder;
    auto traced = obs::run_at_traced(
        ParallelRunner(1), inst.graph(), inst.ids(), std::span<const NodeIndex>(starts),
        [&](auto& exec) { return inst.solve(exec); }, recorder);
    EXPECT_EQ(plain.output, traced.output) << entry.name;
    EXPECT_EQ(plain.volume, traced.volume) << entry.name;
    EXPECT_EQ(plain.distance, traced.distance) << entry.name;
    EXPECT_TRUE(same_costs(plain.stats, traced.stats)) << entry.name;
  }
}

TEST(Registry, MakeIsDeterministicInTargetAndSeed) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance a = entry.make(300, 7);
    const ErasedInstance b = entry.make(300, 7);
    ASSERT_EQ(a.node_count(), b.node_count()) << entry.name;

    const auto starts = every_node(a.node_count());
    auto ra = ParallelRunner(1).run_at(a.graph(), a.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return a.solve(exec); });
    auto rb = ParallelRunner(1).run_at(b.graph(), b.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return b.solve(exec); });
    EXPECT_EQ(ra.output, rb.output) << entry.name;
    EXPECT_TRUE(same_costs(ra.stats, rb.stats)) << entry.name;
  }
}

TEST(Registry, EveryVariantSolvesAndVerifies) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    ASSERT_GE(entry.variants, 2) << entry.name << ": families need shape mutators";
    ASSERT_TRUE(static_cast<bool>(entry.make_variant)) << entry.name;
    for (int variant = 0; variant < entry.variants; ++variant) {
      const ErasedInstance inst = entry.make_variant(300, /*seed=*/11, variant);
      ASSERT_GT(inst.node_count(), 0) << entry.name << " v" << variant;
      const auto starts = every_node(inst.node_count());
      auto run = ParallelRunner(2).run_at(inst.graph(), inst.ids(),
                                          std::span<const NodeIndex>(starts),
                                          [&](Execution& exec) { return inst.solve(exec); });
      const VerifyResult verdict = inst.verify(run.output);
      EXPECT_TRUE(verdict.ok) << entry.name << " v" << variant << ": "
                              << verdict.violations << " violations, first at node "
                              << verdict.first_bad;
    }
  }
}

TEST(Registry, VariantZeroIsMake) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance a = entry.make(260, 9);
    const ErasedInstance b = entry.make_variant(260, 9, 0);
    ASSERT_EQ(a.node_count(), b.node_count()) << entry.name;
    const auto starts = every_node(a.node_count());
    auto ra = ParallelRunner(1).run_at(a.graph(), a.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return a.solve(exec); });
    auto rb = ParallelRunner(1).run_at(b.graph(), b.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return b.solve(exec); });
    EXPECT_EQ(ra.output, rb.output) << entry.name;
    EXPECT_TRUE(same_costs(ra.stats, rb.stats)) << entry.name;
  }
}

TEST(Registry, VariantsPerturbTheShape) {
  // A mutator that returns the canonical instance under another number would
  // give the fuzzer false coverage; demand some observable difference.  Most
  // variants change the graph itself (node count or degrees); label-only
  // perturbations (e.g. balanced-tree's unbalanced defect, which reshapes
  // claims on the same skeleton) must at least change the solved outputs.
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    for (int variant = 1; variant < entry.variants; ++variant) {
      const ErasedInstance canon = entry.make_variant(300, 13, 0);
      const ErasedInstance mut = entry.make_variant(300, 13, variant);
      bool differs = canon.node_count() != mut.node_count();
      if (!differs) {
        for (NodeIndex v = 0; v < canon.node_count() && !differs; ++v) {
          differs = canon.graph().degree(v) != mut.graph().degree(v);
        }
      }
      if (!differs) {
        const auto starts = every_node(canon.node_count());
        auto rc = ParallelRunner(1).run_at(canon.graph(), canon.ids(),
                                           std::span<const NodeIndex>(starts),
                                           [&](Execution& exec) { return canon.solve(exec); });
        auto rm = ParallelRunner(1).run_at(mut.graph(), mut.ids(),
                                           std::span<const NodeIndex>(starts),
                                           [&](Execution& exec) { return mut.solve(exec); });
        differs = rc.output != rm.output;
      }
      EXPECT_TRUE(differs) << entry.name << " v" << variant
                           << " is indistinguishable from the canonical instance";
    }
  }
}

TEST(Registry, NTargetScalesInstances) {
  const RegistryEntry* entry = ProblemRegistry::global().find("hthc-2");
  ASSERT_NE(entry, nullptr);
  const ErasedInstance small = entry->make(200, 3);
  const ErasedInstance large = entry->make(3000, 3);
  EXPECT_LT(small.node_count(), large.node_count());
}

TEST(Registry, VerifyIsRepeatable) {
  // verify() builds its verifier state per call; two calls on the same
  // outputs must agree exactly, on clean and on corrupted outputs.
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance inst = entry.make(/*n_target=*/400, /*seed=*/5);
    std::vector<int> out = solve_everywhere(inst);
    const VerifyResult clean = inst.verify(out);
    EXPECT_TRUE(clean.ok) << entry.name;
    EXPECT_TRUE(same_verdict(clean, inst.verify(out))) << entry.name;
    // Bit 0 is the low bit of the color, port and ball-size encodings, bit 18
    // the low THC-symbol bit: every family sees some outputs change.
    for (std::size_t i = 0; i < out.size(); i += 7) out[i] ^= (1 << 18) | 1;
    const VerifyResult bad = inst.verify(out);
    EXPECT_FALSE(bad.ok) << entry.name;
    EXPECT_TRUE(same_verdict(bad, inst.verify(out))) << entry.name;
  }
}

TEST(Registry, HybridLevel2CorruptionsArePinned) {
  HybridInstance typed = make_hybrid_instance(2, /*backbone_len=*/14, /*bt_depth=*/3, 5);
  std::vector<NodeIndex> level2;
  for (NodeIndex v = 0; v < typed.node_count(); ++v) {
    if (typed.labels.level_in[static_cast<std::size_t>(v)] == 2) level2.push_back(v);
  }
  ASSERT_FALSE(level2.empty());
  const ErasedInstance inst = erase_instance("hybrid-2", std::move(typed));
  const std::vector<int> solved = solve_everywhere(inst);
  ASSERT_TRUE(inst.verify(solved).ok);
  // Pinned verdicts: any rewrite of the verifier must reject exactly these
  // corruptions, with the same first bad node and violation count.
  EXPECT_EQ(corrupt_each(inst, solved, level2),
            (CorruptionTally{{true, kNoNode, 0}, 14, 14, 91}));
}

TEST(Registry, HHCorruptionsArePinned) {
  HHInstance typed = make_hh_instance(2, 3, /*n_half_target=*/200, 5);
  std::vector<NodeIndex> level2;
  std::vector<NodeIndex> side0;
  for (NodeIndex v = 0; v < typed.node_count(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (typed.labels.side[i] == 0) {
      side0.push_back(v);
    } else if (typed.labels.hybrid.level_in[i] == 2) {
      level2.push_back(v);
    }
  }
  ASSERT_FALSE(level2.empty());
  ASSERT_FALSE(side0.empty());
  const ErasedInstance inst = erase_instance("hh-2-3", std::move(typed));
  const std::vector<int> solved = solve_everywhere(inst);
  ASSERT_TRUE(inst.verify(solved).ok);
  // Pinned as in HybridLevel2CorruptionsArePinned.
  EXPECT_EQ(corrupt_each(inst, solved, level2),
            (CorruptionTally{{false, 258, 1}, 14, 14, 3703}));
  EXPECT_EQ(corrupt_each(inst, solved, side0),
            (CorruptionTally{{false, 0, 1}, 743, 1311, 96003}));
}

TEST(Registry, MalformedInputLevelsAreRejectedAtErase) {
  // The Hierarchy that reads the input levels is built only at verify
  // time; the shape check still fires when the instance is erased.
  HybridInstance hybrid = make_hybrid_instance(2, 6, 2, 1);
  hybrid.labels.level_in.pop_back();
  EXPECT_THROW((void)erase_instance("hybrid-2", std::move(hybrid)), std::invalid_argument);
  HHInstance hh = make_hh_instance(2, 3, 64, 1);
  hh.labels.hybrid.level_in.push_back(1);
  EXPECT_THROW((void)erase_instance("hh-2-3", std::move(hh)), std::invalid_argument);
}

TEST(Registry, HierarchicalFamiliesVerifyAfterMutation) {
  // A mutated instance is wired afresh, so its verify() builds the problem
  // over the new graph and labels.  Leaf rewires keep every instance inside
  // what the solver is specified for; label writes need not, but the fast
  // and the naive mutation paths must still reach the same verdict.
  for (const char* family : {"hthc-2", "hthc-3", "hybrid-2", "hh-2-3"}) {
    const RegistryEntry* entry = ProblemRegistry::global().find(family);
    ASSERT_NE(entry, nullptr) << family;
    const ErasedInstance base = entry->make(/*n_target=*/400, /*seed=*/5);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const ErasedInstance rewired =
          base.mutated(base.propose_mutation(seed, /*rewires=*/2, /*label_updates=*/0));
      const VerifyResult r = rewired.verify(solve_everywhere(rewired));
      EXPECT_TRUE(r.ok) << family << " seed " << seed << ": " << r.violations
                        << " violations, first at node " << r.first_bad;

      const MutationBatch batch = base.propose_mutation(seed, 2, /*label_updates=*/4);
      const ErasedInstance fast = base.mutated(batch);
      const ErasedInstance naive = base.mutated_naive(batch);
      const std::vector<int> out = solve_everywhere(fast);
      EXPECT_TRUE(same_verdict(fast.verify(out), naive.verify(out)))
          << family << " seed " << seed;
    }
  }
}

TEST(Registry, MutatedGenerationsShareTheOwnedIdTable) {
  // A batch never changes an ID: a generated instance's mutations share its
  // table outright, and a snapshot-adopted table is copied once, on the first
  // mutation, after which the generations share that copy.
  const ErasedInstance base = ProblemRegistry::global().find("leaf-coloring")->make(300, 3);
  const MutationBatch batch = base.propose_mutation(/*seed=*/4, /*rewires=*/2,
                                                    /*label_updates=*/2);
  ASSERT_FALSE(batch.empty());
  const ErasedInstance fast = base.mutated(batch);
  const ErasedInstance naive = base.mutated_naive(batch);
  EXPECT_EQ(fast.ids().span().data(), base.ids().span().data());
  EXPECT_EQ(naive.ids().span().data(), base.ids().span().data());

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("volcal-registry-ids-" + std::to_string(::getpid()) + ".vsnap");
  base.save_snapshot(path.string());
  const ErasedInstance loaded = load_snapshot_instance(io::Snapshot::load(path.string()));
  std::filesystem::remove(path);
  EXPECT_FALSE(loaded.ids().owned());
  const ErasedInstance first = loaded.mutated(batch);
  ASSERT_TRUE(first.ids().owned());
  EXPECT_NE(first.ids().span().data(), loaded.ids().span().data());
  const ErasedInstance second = first.mutated(batch);
  EXPECT_EQ(second.ids().span().data(), first.ids().span().data());
  for (NodeIndex v = 0; v < base.node_count(); ++v) {
    ASSERT_EQ(second.ids().id_of(v), base.ids().id_of(v)) << v;
  }
}

TEST(Registry, LabelUpdatesTakeOneByteClaims) {
  // Port claims and levels are PortLabel bytes: 255 is the largest value a
  // label update may write, and anything outside [0, 255] is rejected, with
  // the labeling left as it was.
  ColoredTreeLabeling colored(4);
  EXPECT_THROW(apply_label_update(colored, {1, LabelChannel::Parent, 256}),
               std::invalid_argument);
  EXPECT_THROW(apply_label_update(colored, {1, LabelChannel::Parent, -1}),
               std::invalid_argument);
  EXPECT_EQ(colored.tree.parent[1], kNoPort);
  apply_label_update(colored, {1, LabelChannel::Parent, 255});
  EXPECT_EQ(colored.tree.parent[1], 255);

  HybridLabeling hybrid(4);
  EXPECT_THROW(apply_label_update(hybrid, {2, LabelChannel::Level, 256}),
               std::invalid_argument);
  EXPECT_THROW(apply_label_update(hybrid, {2, LabelChannel::Level, -1}),
               std::invalid_argument);
  EXPECT_THROW(apply_label_update(hybrid, {2, LabelChannel::RightNbr, 256}),
               std::invalid_argument);
  EXPECT_EQ(hybrid.level_in[2], 1);
  apply_label_update(hybrid, {2, LabelChannel::Level, 255});
  apply_label_update(hybrid, {2, LabelChannel::RightNbr, 255});
  EXPECT_EQ(hybrid.level_in[2], 255);
  EXPECT_EQ(hybrid.bal.right_nbr[2], 255);
}

// --- per-node footprint of the input labels ---------------------------------

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}
std::size_t label_bytes(const TreeLabeling& t) {
  return vector_bytes(t.parent) + vector_bytes(t.left) + vector_bytes(t.right);
}
std::size_t label_bytes(const ColoredTreeLabeling& l) {
  return label_bytes(l.tree) + vector_bytes(l.color);
}
std::size_t label_bytes(const BalancedTreeLabeling& l) {
  return label_bytes(l.tree) + vector_bytes(l.left_nbr) + vector_bytes(l.right_nbr);
}
std::size_t label_bytes(const HybridLabeling& l) {
  return label_bytes(l.bal) + vector_bytes(l.color) + vector_bytes(l.level_in);
}
std::size_t label_bytes(const HHLabeling& l) {
  return label_bytes(l.hybrid) + vector_bytes(l.side);
}

template <typename Labels>
double label_bytes_per_node(const Instance<Labels>& inst) {
  return static_cast<double>(label_bytes(inst.labels)) /
         static_cast<double>(inst.node_count());
}

TEST(Registry, InputLabelsTakeOneBytePerChannel) {
  // Every label channel is one byte wide, so the labels of each family's
  // canonical instance cost a fixed 4/5/7/8 bytes per node (colored tree /
  // balanced / hybrid / HH).  Widening any channel back to int fails here.
  EXPECT_EQ(sizeof(decltype(TreeLabeling::parent)::value_type), 1u);
  EXPECT_EQ(sizeof(decltype(TreeLabeling::left)::value_type), 1u);
  EXPECT_EQ(sizeof(decltype(TreeLabeling::right)::value_type), 1u);
  EXPECT_EQ(sizeof(decltype(BalancedTreeLabeling::left_nbr)::value_type), 1u);
  EXPECT_EQ(sizeof(decltype(BalancedTreeLabeling::right_nbr)::value_type), 1u);
  EXPECT_EQ(sizeof(decltype(HybridLabeling::color)::value_type), 1u);
  EXPECT_EQ(sizeof(decltype(HybridLabeling::level_in)::value_type), 1u);
  EXPECT_EQ(sizeof(decltype(HHLabeling::side)::value_type), 1u);

  struct Footprint {
    const char* family;
    double bytes_per_node;
    std::function<double()> canonical;
  };
  const auto colored_tree = [] {
    return label_bytes_per_node(make_complete_binary_tree(6, Color::Red, Color::Blue));
  };
  const Footprint pins[] = {
      {"leaf-coloring", 4, colored_tree},
      {"ball-4", 4, colored_tree},
      {"hthc-2", 4, [] { return label_bytes_per_node(make_hierarchical_instance(2, 8, 1)); }},
      {"hthc-3", 4, [] { return label_bytes_per_node(make_hierarchical_instance(3, 4, 1)); }},
      {"balanced-tree", 5, [] { return label_bytes_per_node(make_balanced_instance(6)); }},
      {"hybrid-2", 7, [] { return label_bytes_per_node(make_hybrid_instance(2, 8, 3, 1)); }},
      {"hh-2-3", 8, [] { return label_bytes_per_node(make_hh_instance(2, 3, 128, 1)); }},
  };
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const Footprint* pin = nullptr;
    for (const Footprint& f : pins) {
      if (entry.name == f.family) pin = &f;
    }
    ASSERT_NE(pin, nullptr) << "no footprint pin for " << entry.name;
    EXPECT_EQ(pin->canonical(), pin->bytes_per_node) << entry.name;
  }
}

// FNV-1a 64 folded over `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

struct InstanceHashes {
  std::uint64_t csr = 0xcbf29ce484222325ull;
  std::uint64_t ids = 0xcbf29ce484222325ull;
  std::uint64_t snapshot = 0xcbf29ce484222325ull;
};

struct GeneratorPin {
  const char* family;
  int variant;
  InstanceHashes hashes;
};

// Hashes of every registry entry x variant, folded over n_target in
// {200, 1500} and seed in {1, 7}: the CSR arrays, the ID table, and the bytes
// save_snapshot writes (which add the family's label tables).  Regenerate only
// for a deliberate change to what a generator emits: the test prints the
// computed row of any entry that does not match.
constexpr GeneratorPin kGeneratorPins[] = {
    {"leaf-coloring", 0, {0xde330321268925d5ull, 0xa05c75e26a8894a5ull, 0xc9c894b9e225106full}},
    {"leaf-coloring", 1, {0x07ac2fd31ceaa83eull, 0x8159fbff2b51a301ull, 0xb1290737c1a8e68dull}},
    {"leaf-coloring", 2, {0x0b28703f171a6fd9ull, 0x8f9598d87cf2d2f9ull, 0xadaf1896c9fbd42full}},
    {"leaf-coloring", 3, {0xd6f9007f2204fb3dull, 0xd5cf8ea64083440dull, 0xafe3ea427a7db393ull}},
    {"balanced-tree", 0, {0x84d67ba1b1a926b9ull, 0xa05c75e26a8894a5ull, 0x7915eee5d1a3f171ull}},
    {"balanced-tree", 1, {0x84d67ba1b1a926b9ull, 0xa05c75e26a8894a5ull, 0x7b7b5fe7e9171f95ull}},
    {"ball-4", 0, {0xde330321268925d5ull, 0xa05c75e26a8894a5ull, 0x72f396109d936d83ull}},
    {"ball-4", 1, {0x07ac2fd31ceaa83eull, 0x8159fbff2b51a301ull, 0xb94c23b79cced2b9ull}},
    {"ball-4", 2, {0x0b28703f171a6fd9ull, 0x8f9598d87cf2d2f9ull, 0x8c2fa94fc33574a3ull}},
    {"ball-4", 3, {0xd6f9007f2204fb3dull, 0xd5cf8ea64083440dull, 0x5a3217d3058c35f7ull}},
    {"hthc-2", 0, {0xea9b35bed416e1c5ull, 0xb3076bee7ebfa1a5ull, 0x792d04786792229dull}},
    {"hthc-2", 1, {0x296f62d9d040068aull, 0x9cc24a6008c999aaull, 0x569f8bfd3df5af99ull}},
    {"hthc-2", 2, {0xecc10367a37eddfdull, 0x48a6172f4b74b9b1ull, 0x86f01c1f62696cddull}},
    {"hthc-3", 0, {0x0cbda073ed94d185ull, 0x6954646c59c16f95ull, 0xea1c33b1635e81d8ull}},
    {"hthc-3", 1, {0x3fb2fa9d66bc8149ull, 0x54a44ada0881d8dbull, 0xb19f6830e82fc4a8ull}},
    {"hthc-3", 2, {0xab2371f45f98d0fdull, 0xa2cf97ac6d11c4c5ull, 0x7f8b445d1174f231ull}},
    {"hybrid-2", 0, {0xb64ef2d133f7c661ull, 0x26498db7427f91fdull, 0x9a64e9ff1480dffaull}},
    {"hybrid-2", 1, {0xe52dc22ff6d38709ull, 0x44f1e5b2e5fd59f5ull, 0xfa3687363c4be612ull}},
    {"hh-2-3", 0, {0x30ed6858bc34885dull, 0xf420620fad056b0dull, 0x4e9697b54bf49f2cull}},
    {"hh-2-3", 1, {0x18ec9c75c075efb5ull, 0xe69b8fd9d80c8209ull, 0xf73458739fb60bf2ull}},
};

TEST(Registry, GeneratedInstancesArePinned) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("volcal-registry-pin-" + std::to_string(::getpid()) + ".vsnap");
  std::size_t cases = 0;
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    for (int variant = 0; variant < entry.variants; ++variant) {
      InstanceHashes h;
      for (const NodeIndex n_target : {200, 1500}) {
        for (const std::uint64_t seed : {1u, 7u}) {
          const ErasedInstance inst = entry.make_variant(n_target, seed, variant);
          const GraphView g = inst.graph();
          const auto n = static_cast<std::size_t>(g.node_count());
          h.csr = fnv1a(h.csr, g.offsets_data(), (n + 1) * sizeof(std::size_t));
          h.csr = fnv1a(h.csr, g.adjacency_data(),
                        g.offsets_data()[n] * sizeof(NodeIndex));
          const std::span<const NodeId> ids = inst.ids().span();
          h.ids = fnv1a(h.ids, ids.data(), ids.size_bytes());
          inst.save_snapshot(path.string());
          std::ifstream is(path, std::ios::binary);
          const std::string bytes{std::istreambuf_iterator<char>(is),
                                  std::istreambuf_iterator<char>()};
          h.snapshot = fnv1a(h.snapshot, bytes.data(), bytes.size());
        }
      }
      ++cases;
      const GeneratorPin* pin = nullptr;
      for (const GeneratorPin& p : kGeneratorPins) {
        if (entry.name == p.family && variant == p.variant) pin = &p;
      }
      char row[160];
      std::snprintf(row, sizeof row, "{\"%s\", %d, {0x%016llxull, 0x%016llxull, 0x%016llxull}},",
                    entry.name.c_str(), variant, static_cast<unsigned long long>(h.csr),
                    static_cast<unsigned long long>(h.ids),
                    static_cast<unsigned long long>(h.snapshot));
      if (pin == nullptr) {
        ADD_FAILURE() << "no pin for " << row;
        continue;
      }
      EXPECT_EQ(pin->hashes.csr, h.csr) << row;
      EXPECT_EQ(pin->hashes.ids, h.ids) << row;
      EXPECT_EQ(pin->hashes.snapshot, h.snapshot) << row;
    }
  }
  std::filesystem::remove(path);
  EXPECT_EQ(cases, std::size(kGeneratorPins)) << "stale pins in kGeneratorPins";
}

}  // namespace
}  // namespace volcal
