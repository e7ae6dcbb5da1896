// Seeded violation: an obs-layer file serializes a snapshot byte stream
// but never seals it with the frame codec, so the blob carries no format
// version for a reader to reject on (det-frame-versioned).
#include "common/snapshot.h"

namespace sds::obs {
std::string SealUnversioned() {
  SnapshotWriter w;
  w.U32(7u);
  return w.TakeData();
}
}  // namespace sds::obs
