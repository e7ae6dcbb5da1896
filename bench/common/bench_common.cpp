#include "common/bench_common.h"

#include <ostream>

#include "eval/report.h"

namespace sds::bench {

void PrintBenchHeader(std::ostream& os, const std::string& title,
                      const std::string& paper_reference) {
  os << "================================================================\n"
     << title << "\n"
     << "reproduces: " << paper_reference << "\n"
     << "================================================================\n\n";
  eval::PrintParams(os, detect::DetectorParams{}, detect::KsTestParams{});
}

}  // namespace sds::bench
