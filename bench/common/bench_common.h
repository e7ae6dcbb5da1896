// Shared infrastructure for the figure-reproduction benches.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sds::bench {

// Pretty header printed by every bench: what is being reproduced, with the
// Table 1 parameters.
void PrintBenchHeader(std::ostream& os, const std::string& title,
                      const std::string& paper_reference);

// A seeded sweep's grid flags, checked right after parsing: --runs must be
// a positive int and every --rates element a probability in (0, 1]. Prints
// the first offending flag to stderr and returns false; callers then exit 1.
bool SweepFlagsValid(const std::string& program, long long runs,
                     const std::vector<double>& rates);

// A table cell for a mean or max that the sweep sets to -1 when no run
// produced one: `-`, as Figure 11 prints an undetected cell; else the value
// with `decimals` places.
std::string FixedOrDash(double value, int decimals);

}  // namespace sds::bench
