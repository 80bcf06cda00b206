// Versioned binary instance snapshots + the mmap-backed zero-copy loader.
//
// A snapshot is the on-disk form of one generated Instance: the CSR graph
// (offsets + port-symmetric adjacency), the ID table, and the family's label
// tables, laid out so the engine can execute against the file mapping with
// zero copies for the hot arrays.  volcal_gen writes them once per (family,
// size, seed); volcal_bench / volcal_fuzz load them instead of regenerating,
// which is what lets doubling sweeps leave RAM-resident generator territory
// (n >= 2^26).
//
// File layout (all fields little-endian; the writer and loader refuse to
// build on big-endian targets, see snapshot.cpp):
//
//   Header (104 bytes at offset 0)
//     0   char magic[8]        "VOLCSNP1"
//     8   u32  version         format schema, currently 1
//     12  u32  header_bytes    104 (offset of the section table)
//     16  char family[32]      registry key, NUL-padded ("leaf-coloring"...)
//     48  i64  node_count      n
//     56  u64  adjacency_count 2 * edge_count (== offsets[n])
//     64  i32  max_degree
//     68  u32  section_count
//     72  u64  payload_offset  first byte after the section table, 8-aligned
//     80  u64  payload_bytes   checksummed region [payload_offset, +bytes)
//     88  u64  checksum        FNV-1a 64 over the payload region
//     96  u64  reserved        0
//
//   Section table: section_count entries of 32 bytes
//     0   char tag[8]          NUL-padded ("offsets", "adj", "ids", ...)
//     8   u32  elem_bytes
//     12  u32  reserved        0
//     16  u64  count           element count
//     24  u64  offset          absolute file offset, 8-byte aligned
//
//   Payload: the section arrays, 8-byte aligned, zero padding between them
//   (padding is part of the checksummed region, so any flipped byte in the
//   payload fails verification).
//
// Sections by family (n-sized unless noted):
//   always            offsets u64 x (n+1) | adj i64 x adjacency_count |
//                     ids u64
//   tree labelings    parent, left, right        i32
//   colored (+hthc)   color                      u8
//   balanced-tree     leftnbr, rightnbr          i32
//   hybrid            + color, levelin           u8/i32
//   hh                + side                     u8
//
// Label claims (the i32 sections: port claims and levels) are held in memory
// as one-byte PortLabels (labels/tree_labeling.hpp) but stay i32 on disk: the
// writer widens each claim, and the loader narrows it with a range check,
// rejecting a value outside [0, kMaxPortLabel] with a SnapshotError.  Unlike
// the CSR and ID sections, label sections are copied out of the mapping.
//
// Versioning: readers accept exactly the versions they know; any layout
// change bumps `version`.  Unknown section tags are ignored on load, so
// additive extensions may reuse version 1.
//
// Ownership / lifetime: Snapshot keeps the mapping alive via a shared
// handle.  GraphView / span accessors borrow the mapping; whoever adopts
// them into longer-lived objects (Graph::adopt, IdAssignment::adopt) must
// retain mapping() alongside — load_snapshot_instance (lcl/registry.hpp)
// parks it in the erased instance's keep-alive slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_view.hpp"
#include "labels/instances.hpp"

namespace volcal::io {

struct SnapshotError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr char kSnapshotMagic[8] = {'V', 'O', 'L', 'C', 'S', 'N', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

// Read-only mmap of a whole file (RAII).  Kept behind shared_ptr so views
// into the mapping can outlive the Snapshot that produced them.
class MappedFile {
 public:
  static std::shared_ptr<const MappedFile> map(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MappedFile() = default;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// A loaded, validated snapshot.  Cheap to move; accessors return borrowed
// views into the mapping (see the lifetime contract above).
class Snapshot {
 public:
  struct Options {
    // Verify the payload checksum on load.  On by default — a corrupt
    // snapshot must never reach the engine; the bench's load phase includes
    // this cost deliberately (it is part of an honest load path).
    bool verify_checksum = true;
  };

  static Snapshot load(const std::string& path);
  static Snapshot load(const std::string& path, Options opts);

  const std::string& path() const { return path_; }
  const std::string& family() const { return family_; }
  NodeIndex node_count() const { return node_count_; }
  std::uint64_t adjacency_count() const { return adjacency_count_; }
  int max_degree() const { return max_degree_; }

  // The CSR graph, zero-copy over the mapping.  Every view returned by one
  // Snapshot object (and its copies, which share the mapping) carries the
  // same storage token, minted once at load.
  GraphView graph() const;

  // The storage-identity token minted for this load (see graph_view.hpp).
  StorageToken storage_token() const { return token_; }

  // The ID table, zero-copy over the mapping.
  std::span<const NodeId> ids() const;

  bool has_section(std::string_view tag) const { return find(tag) != nullptr; }

  // Typed accessors for label sections; throw SnapshotError when the tag is
  // absent or has a different element width.  claims() copies an i32 claim
  // section narrowed to PortLabel bytes and also throws on a claim outside
  // [0, kMaxPortLabel].
  std::vector<PortLabel> claims(std::string_view tag) const;        // i32 sections
  std::span<const std::uint8_t> bytes(std::string_view tag) const;  // u8 sections

  // Keep-alive handle for adopted views (Graph::adopt / IdAssignment::adopt).
  std::shared_ptr<const void> mapping() const { return map_; }

 private:
  struct Section {
    std::string tag;
    std::uint32_t elem_bytes = 0;
    std::uint64_t count = 0;
    std::uint64_t offset = 0;
  };

  const Section* find(std::string_view tag) const;
  const Section& require(std::string_view tag, std::uint32_t elem_bytes,
                         std::uint64_t count) const;

  std::shared_ptr<const MappedFile> map_;
  std::string path_;
  std::string family_;
  NodeIndex node_count_ = 0;
  std::uint64_t adjacency_count_ = 0;
  int max_degree_ = 0;
  StorageToken token_ = kAnonymousStorage;
  std::vector<Section> sections_;
};

// Writers — one per labeling shape; `family` is the registry key recorded in
// the header (what load_snapshot_instance rehydrates the solver from).
void write_snapshot(const std::string& path, std::string_view family,
                    const LeafColoringInstance& inst);
void write_snapshot(const std::string& path, std::string_view family,
                    const BalancedTreeInstance& inst);
void write_snapshot(const std::string& path, std::string_view family,
                    const HybridInstance& inst);
void write_snapshot(const std::string& path, std::string_view family,
                    const HHInstance& inst);

// True iff `path` exists and begins with the snapshot magic (format sniffing
// for io::load_instance; never throws).
bool sniff_snapshot(const std::string& path);

}  // namespace volcal::io
