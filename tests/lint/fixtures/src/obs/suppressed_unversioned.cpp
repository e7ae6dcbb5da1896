// The allow() escape hatch silences det-frame-versioned — e.g. for a
// transcoder that re-emits payload bytes whose frame is written by another
// translation unit.
#include "common/snapshot.h"

namespace sds::obs {
std::string Transcode(const std::string& payload) {
  SnapshotWriter w;  // sdslint: allow(det-frame-versioned)
  w.Str(payload);
  return w.TakeData();
}
}  // namespace sds::obs
