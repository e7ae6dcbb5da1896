// Clean: the same serialization shape sealed by the frame codec, which
// writes the format version into the byte stream, as obs/handoff.cpp does
// for real blobs.
#include "common/snapshot.h"

namespace sds::obs {
std::string SealVersioned() {
  SnapshotWriter w;
  w.U32(7u);
  return SealSnapshot("kind", 0, w.data());
}
}  // namespace sds::obs
