#include "common/bench_common.h"

#include <cstdio>
#include <limits>
#include <ostream>

#include "common/csv.h"
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

bool SweepFlagsValid(const std::string& program, long long runs,
                     const std::vector<double>& rates) {
  if (runs < 1 || runs > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "%s: --runs=%lld: runs per cell must be a positive "
                 "int\n", program.c_str(), runs);
    return false;
  }
  for (const double rate : rates) {
    if (!(rate > 0.0 && rate <= 1.0)) {
      std::fprintf(stderr, "%s: --rates: %g is not a probability in (0, 1]\n",
                   program.c_str(), rate);
      return false;
    }
  }
  return true;
}

std::string FixedOrDash(double value, int decimals) {
  return value < 0.0 ? "-" : FormatFixed(value, decimals);
}

}  // namespace sds::bench
