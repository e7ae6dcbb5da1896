// Shared infrastructure for the figure-reproduction benches.
#pragma once

#include <iosfwd>
#include <string>

namespace sds::bench {

// Pretty header printed by every bench: what is being reproduced, with the
// Table 1 parameters.
void PrintBenchHeader(std::ostream& os, const std::string& title,
                      const std::string& paper_reference);

}  // namespace sds::bench
