#include "io/instance_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/serialize.hpp"

namespace volcal::io {
namespace {

// Text kind token (header line "volcal-instance v1 <kind>") -> registry
// family.  Text files predate multi-family colored-tree reuse, so a
// leafcoloring file always rehydrates as the leaf-coloring entry; snapshots
// record the exact family instead.
std::string family_for_text_kind(const std::string& kind) {
  if (kind == "leafcoloring") return "leaf-coloring";
  if (kind == "balancedtree") return "balanced-tree";
  if (kind == "hybrid") return "hybrid-2";
  throw SnapshotError("io: text instance kind '" + kind + "' has no loader");
}

}  // namespace

InstanceFormat sniff_format(const std::string& path) {
  if (sniff_snapshot(path)) return InstanceFormat::snapshot;
  std::ifstream is(path);
  if (!is) throw SnapshotError("io: cannot open '" + path + "'");
  std::string w1, w2;
  is >> w1 >> w2;
  if (w1 == "volcal-instance" && w2 == "v1") return InstanceFormat::text;
  throw SnapshotError("io: '" + path + "' is neither a snapshot nor a text instance");
}

ErasedInstance load_instance(const std::string& path) {
  if (sniff_format(path) == InstanceFormat::snapshot) {
    return load_snapshot_instance(Snapshot::load(path));
  }
  std::ifstream is(path);
  if (!is) throw SnapshotError("io: cannot open '" + path + "'");
  std::string w1, w2, kind;
  is >> w1 >> w2 >> kind;
  is.seekg(0);
  const std::string family = family_for_text_kind(kind);
  if (kind == "leafcoloring") return erase_instance(family, read_leafcoloring(is));
  if (kind == "balancedtree") return erase_instance(family, read_balancedtree(is));
  return erase_instance(family, read_hybrid(is));
}

void save_instance(const ErasedInstance& inst, const std::string& path,
                   InstanceFormat format) {
  if (format == InstanceFormat::snapshot) {
    inst.save_snapshot(path);
    return;
  }
  if (!inst.has_text_format()) {
    throw std::invalid_argument("io: family '" + inst.family() +
                                "' has no text format; use the snapshot form");
  }
  std::ofstream os(path);
  if (!os) throw SnapshotError("io: cannot open '" + path + "' for writing");
  inst.save_text(os);
  if (!os) throw SnapshotError("io: write to '" + path + "' failed");
}

}  // namespace volcal::io
