// Snapshot format + zero-copy GraphView pins (io/snapshot.hpp, volcal/io.hpp).
//
// The contract under test: an instance written as a binary snapshot and
// mmap-loaded back is *the same instance* as far as the engine can tell —
// bit-identical outputs and model costs for every registry family, on both
// execution backends, at any thread count.  Plus the format pins that make
// snapshots durable artifacts: corruption is rejected with a pinpointed
// error, the header layout is little-endian at fixed offsets, and sections
// stay 8-byte aligned so the mmap'd arrays are directly addressable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "labels/generators.hpp"
#include "volcal/io.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("volcal-snapshot-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os) << path;
}

void expect_load_error(const std::string& path, const std::string& needle) {
  try {
    (void)io::Snapshot::load(path);
    FAIL() << path << ": expected SnapshotError containing '" << needle << "'";
  } catch (const io::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

std::uint64_t u64_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + off, 8);
  return v;  // the test target is pinned little-endian by snapshot.cpp
}

// --- the tentpole contract: write -> mmap -> execute, bit-identical ---------

TEST_F(SnapshotTest, EveryFamilyRoundTripsBitIdenticallyOnBothBackends) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    SCOPED_TRACE(entry.name);
    const ErasedInstance inst = entry.make(300, 7);
    const std::string file = path(entry.name + ".vsnap");
    inst.save_snapshot(file);
    ASSERT_EQ(io::sniff_format(file), io::InstanceFormat::snapshot);
    const ErasedInstance loaded = io::load_instance(file);

    ASSERT_EQ(loaded.family(), entry.name);
    const NodeIndex n = inst.node_count();
    ASSERT_EQ(loaded.node_count(), n);

    // The loaded CSR is a different allocation (in fact a file mapping) —
    // the cache-identity key must see that — with identical bytes.
    const GraphView a = inst.graph();
    const GraphView b = loaded.graph();
    EXPECT_NE(a.storage_identity(), b.storage_identity());
    ASSERT_EQ(a.edge_count(), b.edge_count());
    ASSERT_EQ(a.max_degree(), b.max_degree());
    EXPECT_EQ(std::memcmp(a.offsets_data(), b.offsets_data(),
                          sizeof(std::size_t) * static_cast<std::size_t>(n + 1)),
              0);
    if (a.edge_count() > 0) {
      EXPECT_EQ(std::memcmp(a.adjacency_data(), b.adjacency_data(),
                            sizeof(NodeIndex) * static_cast<std::size_t>(2 * a.edge_count())),
                0);
    }

    // Whole-graph sweeps: Basic and the family's planned backend, serial and
    // 8-thread, all bit-identical between the in-RAM and mmap instances.
    auto solve_a = [&](auto& exec) { return inst.solve(exec); };
    auto solve_b = [&](auto& exec) { return loaded.solve(exec); };
    const auto base = run_at_all_nodes(a, inst.ids(), solve_a);
    for (const int threads : {1, 8}) {
      for (const ExecBackend backend : {ExecBackend::Basic, ExecBackend::Batched}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, backend " +
                     std::to_string(static_cast<int>(backend)));
        std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
        for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
        ParallelRunner runner(threads);
        runner.set_backend(backend);
        const auto run = runner.run_planned(b, loaded.ids(), starts, entry.plan, solve_b);
        EXPECT_EQ(base.output, run.output);
        EXPECT_EQ(base.volume, run.volume);
        EXPECT_EQ(base.distance, run.distance);
        EXPECT_EQ(base.queries, run.queries);
      }
    }

    // And the loaded instance's outputs satisfy its own verifier.
    const VerifyResult verdict = loaded.verify(base.output);
    EXPECT_TRUE(verdict.ok) << verdict.violations << " violations";
  }
}

// --- corruption rejection ----------------------------------------------------

TEST_F(SnapshotTest, RejectsCorruptHeadersAndPayloads) {
  const ErasedInstance inst = ProblemRegistry::global().find("leaf-coloring")->make(64, 3);
  const std::string file = path("victim.vsnap");
  inst.save_snapshot(file);
  const std::vector<std::uint8_t> good = read_file(file);
  ASSERT_GT(good.size(), 104u);

  {  // not even a full header
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + 40);
    write_file(file, bad);
    expect_load_error(file, "truncated header");
  }
  {  // wrong magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0x20;
    write_file(file, bad);
    expect_load_error(file, "bad magic");
  }
  {  // unknown version
    std::vector<std::uint8_t> bad = good;
    bad[8] = 99;
    write_file(file, bad);
    expect_load_error(file, "unsupported version");
  }
  {  // truncated payload
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + good.size() / 2);
    write_file(file, bad);
    expect_load_error(file, "out of bounds");
  }
  {  // single flipped payload byte
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() - 1] ^= 1;
    write_file(file, bad);
    expect_load_error(file, "checksum mismatch");
  }
  {  // intact bytes still load (the victim file was not the problem)
    write_file(file, good);
    EXPECT_NO_THROW((void)io::Snapshot::load(file));
  }
}

// Overwrites claim `index` of the i32 section `tag` with `value` and restores
// the payload checksum, so the file passes every format check and only the
// claim's range is wrong.
void patch_claim(std::vector<std::uint8_t>& b, const std::string& tag, std::size_t index,
                 std::int32_t value) {
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, b.data() + 68, 4);
  bool found = false;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t e = 104 + 32 * static_cast<std::size_t>(i);
    const char* name = reinterpret_cast<const char*>(b.data() + e);
    if (std::string(name, ::strnlen(name, 8)) != tag) continue;
    std::uint32_t elem_bytes = 0;
    std::memcpy(&elem_bytes, b.data() + e + 8, 4);
    ASSERT_EQ(elem_bytes, 4u) << tag;
    ASSERT_LT(index, u64_at(b, e + 16)) << tag;
    std::memcpy(b.data() + u64_at(b, e + 24) + 4 * index, &value, 4);
    found = true;
  }
  ASSERT_TRUE(found) << "no section " << tag;
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 over the payload
  const std::uint64_t begin = u64_at(b, 72);
  for (std::uint64_t i = begin; i < begin + u64_at(b, 80); ++i) {
    h = (h ^ b[i]) * 1099511628211ull;
  }
  std::memcpy(b.data() + 88, &h, 8);
}

// Label claims stay i32 on disk but are one byte in memory: the loader
// narrows each with a range check, accepting 255 and rejecting 256 or -1
// with a SnapshotError that names the section.
TEST_F(SnapshotTest, ClaimsOutsideOneByteAreRejectedOnLoad) {
  struct Case {
    const char* family;
    const char* tag;
  };
  for (const Case c : {Case{"leaf-coloring", "parent"}, Case{"balanced-tree", "rightnbr"},
                       Case{"hybrid-2", "levelin"}}) {
    SCOPED_TRACE(c.tag);
    const ErasedInstance inst = ProblemRegistry::global().find(c.family)->make(64, 3);
    const std::string file = path(std::string(c.family) + ".vsnap");
    inst.save_snapshot(file);
    const std::vector<std::uint8_t> good = read_file(file);

    for (const std::int32_t bad : {256, -1}) {
      std::vector<std::uint8_t> patched = good;
      patch_claim(patched, c.tag, 5, bad);
      write_file(file, patched);
      EXPECT_NO_THROW((void)io::Snapshot::load(file));  // the format itself is intact
      try {
        (void)io::load_instance(file);
        ADD_FAILURE() << c.tag << " = " << bad << " loaded";
      } catch (const io::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("section " + std::string(c.tag)),
                  std::string::npos)
            << e.what();
      }
    }

    // 255 fits: it loads, and saving the loaded instance writes the patched
    // bytes back unchanged.
    std::vector<std::uint8_t> max_claim = good;
    patch_claim(max_claim, c.tag, 5, 255);
    write_file(file, max_claim);
    const ErasedInstance loaded = io::load_instance(file);
    const std::string resaved = path("resaved.vsnap");
    loaded.save_snapshot(resaved);
    EXPECT_EQ(read_file(resaved), max_claim);
  }
}

// MappedFile::map must say *what kind* of wrong target it was handed — a
// directory, an empty file, and a sub-header file each get their own
// diagnostic instead of a generic mmap/size error.
TEST_F(SnapshotTest, MappedFileEdgeDiagnostics) {
  {  // directory target (opens fine on Linux; used to die inside mmap)
    expect_load_error(dir_.string(), "is a directory");
  }
  {  // zero-size file
    const std::string file = path("empty.vsnap");
    write_file(file, {});
    expect_load_error(file, "empty file");
  }
  {  // nonexistent path
    expect_load_error(path("does-not-exist.vsnap"), "cannot open");
  }
  {  // present but smaller than the 104-byte header
    const std::string file = path("stub.vsnap");
    write_file(file, std::vector<std::uint8_t>(16, 0x56));
    expect_load_error(file, "truncated header");
  }
}

// Each load mints its own storage identity: a persistent ViewCache bound to
// one mapping can never confuse it with a later mapping of the same (or any
// other) file, even if mmap recycles the address range.
TEST_F(SnapshotTest, EachLoadMintsADistinctStorageToken) {
  const ErasedInstance inst = ProblemRegistry::global().find("ball-4")->make(64, 5);
  const std::string file = path("token.vsnap");
  inst.save_snapshot(file);

  const io::Snapshot first = io::Snapshot::load(file);
  const io::Snapshot second = io::Snapshot::load(file);
  EXPECT_NE(first.graph().storage_identity(), kAnonymousStorage);
  EXPECT_NE(second.graph().storage_identity(), kAnonymousStorage);
  EXPECT_NE(first.graph().storage_identity(), second.graph().storage_identity());
  // One snapshot's views all share its token; copies share the mapping and
  // therefore the identity.
  EXPECT_EQ(first.graph().storage_identity(), first.graph().storage_identity());
  EXPECT_EQ(first.storage_token(), first.graph().storage_identity());
  const io::Snapshot copy = first;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.graph().storage_identity(), first.graph().storage_identity());
}

// --- byte-layout pins --------------------------------------------------------

TEST_F(SnapshotTest, HeaderLayoutIsLittleEndianAtFixedOffsets) {
  // depth-2 complete binary tree: n = 7, 6 edges, max degree 3.
  const LeafColoringInstance inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  const std::string file = path("layout.vsnap");
  io::write_snapshot(file, "leaf-coloring", inst);
  const std::vector<std::uint8_t> b = read_file(file);
  ASSERT_GE(b.size(), 104u);

  EXPECT_EQ(std::memcmp(b.data(), "VOLCSNP1", 8), 0);
  // version u32 little-endian at offset 8: 01 00 00 00.
  EXPECT_EQ(b[8], 1u);
  EXPECT_EQ(b[9], 0u);
  EXPECT_EQ(b[10], 0u);
  EXPECT_EQ(b[11], 0u);
  // header_bytes u32 at 12.
  EXPECT_EQ(b[12], 104u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(b.data() + 16)), "leaf-coloring");
  EXPECT_EQ(u64_at(b, 48), 7u);   // node_count
  EXPECT_EQ(u64_at(b, 56), 12u);  // adjacency_count = 2 * edges
  EXPECT_EQ(b[64], 3u);           // max_degree (low byte)
  const std::uint64_t payload_offset = u64_at(b, 72);
  const std::uint64_t payload_bytes = u64_at(b, 80);
  EXPECT_EQ(payload_offset % 8, 0u);
  EXPECT_EQ(payload_offset + payload_bytes, b.size());

  // Section table: every section 8-aligned inside the payload, and the CSR
  // sections carry the pinned element widths.
  const std::uint32_t section_count = b[68] | (std::uint32_t{b[69]} << 8);
  ASSERT_GE(section_count, 3u);
  bool saw_offsets = false, saw_adj = false, saw_ids = false;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t e = 104 + 32 * static_cast<std::size_t>(i);
    const std::string tag(reinterpret_cast<const char*>(b.data() + e));
    std::uint32_t elem_bytes = 0;
    std::memcpy(&elem_bytes, b.data() + e + 8, 4);
    const std::uint64_t count = u64_at(b, e + 16);
    const std::uint64_t offset = u64_at(b, e + 24);
    EXPECT_EQ(offset % 8, 0u) << tag;
    EXPECT_GE(offset, payload_offset) << tag;
    EXPECT_LE(offset + elem_bytes * count, b.size()) << tag;
    if (tag == "offsets") {
      saw_offsets = true;
      EXPECT_EQ(elem_bytes, 8u);
      EXPECT_EQ(count, 8u);  // n + 1
      // offsets[0] == 0 in payload bytes, little-endian.
      EXPECT_EQ(u64_at(b, offset), 0u);
      EXPECT_EQ(u64_at(b, offset + 7 * 8), 12u);  // offsets[n] == adjacency_count
    } else if (tag == "adj") {
      saw_adj = true;
      EXPECT_EQ(elem_bytes, 8u);
      EXPECT_EQ(count, 12u);
    } else if (tag == "ids") {
      saw_ids = true;
      EXPECT_EQ(elem_bytes, 8u);
      EXPECT_EQ(count, 7u);
    }
  }
  EXPECT_TRUE(saw_offsets);
  EXPECT_TRUE(saw_adj);
  EXPECT_TRUE(saw_ids);
}

// --- Graph::adopt / GraphView semantics --------------------------------------

TEST(GraphViewAdopt, AdoptedGraphDelegatesAndThrowsIdentically) {
  const LeafColoringInstance inst = make_complete_binary_tree(3, Color::Red, Color::Blue);
  const Graph& owned = inst.graph;
  const GraphView view = owned;  // implicit conversion
  const Graph adopted = Graph::adopt(view);

  ASSERT_EQ(adopted.node_count(), owned.node_count());
  EXPECT_EQ(adopted.edge_count(), owned.edge_count());
  EXPECT_EQ(adopted.max_degree(), owned.max_degree());
  for (NodeIndex v = 0; v < owned.node_count(); ++v) {
    ASSERT_EQ(adopted.degree(v), owned.degree(v));
    for (Port p = 1; p <= owned.degree(v); ++p) {
      EXPECT_EQ(adopted.neighbor(v, p), owned.neighbor(v, p));
    }
  }
  // An adopted Graph's view borrows the *original* storage: copying the
  // Graph must not re-point it (the adopt contract is pointer-stable).
  EXPECT_EQ(adopted.view().storage_identity(), view.storage_identity());
  const Graph copy = adopted;
  EXPECT_EQ(copy.view().storage_identity(), view.storage_identity());

  // Error wording is shared via the one CSR port-check helper, so engine
  // diagnostics are identical no matter which facade raised them.
  auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::out_of_range& e) {
      return e.what();
    }
    return "(did not throw)";
  };
  const std::string from_graph = message_of([&] { (void)owned.neighbor(0, 99); });
  const std::string from_view = message_of([&] { (void)view.neighbor(0, 99); });
  const std::string from_adopted = message_of([&] { (void)adopted.neighbor(0, 99); });
  EXPECT_NE(from_graph, "(did not throw)");
  EXPECT_EQ(from_graph, from_view);
  EXPECT_EQ(from_graph, from_adopted);
  EXPECT_EQ(message_of([&] { (void)view.neighbor(-1, 1); }),
            message_of([&] { (void)owned.neighbor(-1, 1); }));
}

// --- io consolidation: sniffing + the text path ------------------------------

TEST_F(SnapshotTest, LoadInstanceSniffsTextAndSnapshotForms) {
  const ErasedInstance inst = ProblemRegistry::global().find("leaf-coloring")->make(64, 5);

  const std::string text_file = path("inst.txt");
  ASSERT_TRUE(inst.has_text_format());
  io::save_instance(inst, text_file, io::InstanceFormat::text);
  EXPECT_EQ(io::sniff_format(text_file), io::InstanceFormat::text);

  const std::string snap_file = path("inst.vsnap");
  io::save_instance(inst, snap_file);  // snapshot is the default form
  EXPECT_EQ(io::sniff_format(snap_file), io::InstanceFormat::snapshot);
  EXPECT_TRUE(io::sniff_snapshot(snap_file));
  EXPECT_FALSE(io::sniff_snapshot(text_file));

  // Both forms rehydrate through the same entry point into equivalent
  // instances: identical whole-graph outputs.
  const ErasedInstance from_text = io::load_instance(text_file);
  const ErasedInstance from_snap = io::load_instance(snap_file);
  EXPECT_EQ(from_text.family(), inst.family());
  EXPECT_EQ(from_snap.family(), inst.family());
  const auto expect = run_at_all_nodes(inst.graph(), inst.ids(),
                                       [&](Execution& e) { return inst.solve(e); });
  const auto got_text = run_at_all_nodes(from_text.graph(), from_text.ids(),
                                         [&](Execution& e) { return from_text.solve(e); });
  const auto got_snap = run_at_all_nodes(from_snap.graph(), from_snap.ids(),
                                         [&](Execution& e) { return from_snap.solve(e); });
  EXPECT_EQ(expect.output, got_text.output);
  EXPECT_EQ(expect.output, got_snap.output);

  // Garbage is neither format.
  const std::string junk = path("junk.bin");
  write_file(junk, {0xde, 0xad, 0xbe, 0xef});
  EXPECT_THROW((void)io::sniff_format(junk), io::SnapshotError);

  // HH has no text writer — save_instance must say so, not write garbage.
  const ErasedInstance hh = ProblemRegistry::global().find("hh-2-3")->make(200, 5);
  EXPECT_FALSE(hh.has_text_format());
  EXPECT_THROW(io::save_instance(hh, path("hh.txt"), io::InstanceFormat::text),
               std::invalid_argument);
}

TEST_F(SnapshotTest, EraseInstanceRejectsUnknownFamilies) {
  LeafColoringInstance inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  EXPECT_THROW((void)erase_instance("no-such-family", std::move(inst)),
               std::invalid_argument);
}

}  // namespace
}  // namespace volcal
