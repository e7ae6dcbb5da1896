// Seeded violation: a svc-layer file frames WAL records without the frame
// codec, so a recovery scan could misparse frames written by a different
// format (det-frame-versioned).
#include <string>

namespace sds::svc {
class WalWriter {
 public:
  static std::string EncodeFrame(const std::string& body) { return body; }
};
}  // namespace sds::svc
