// The allow() escape hatch silences det-frame-versioned — e.g. for a replay
// shim that copies already-framed bytes whose frame was written by another
// translation unit.
#include <string>

namespace sds::svc {
class WalReader {  // sdslint: allow(det-frame-versioned)
 public:
  static std::string PassThrough(const std::string& frame) { return frame; }
};
}  // namespace sds::svc
