// Clean: the same framing shape sealed by the frame codec, which writes the
// length, checksum and format version, as svc/wal.cpp does for real frames.
#include <string>

#include "common/snapshot.h"

namespace sds::svc {
class WalWriter {
 public:
  static std::string EncodeFrame(const std::string& body) {
    return SealFrame(body);
  }
};
}  // namespace sds::svc
