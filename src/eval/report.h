// Shared reporting helpers for the bench binaries.
#pragma once

#include <iosfwd>
#include <string>

#include "detect/params.h"
#include "stats/descriptive.h"

namespace sds::eval {

// Prints Table 1 (the detection-scheme parameters) plus the KStest baseline
// settings, so every bench output is self-describing.
void PrintParams(std::ostream& os, const detect::DetectorParams& params,
                 const detect::KsTestParams& ks);

// "0.97 [0.93, 1.00]" — median with the 10th/90th percentile error bar.
std::string FormatSummary(const PercentileSummary& s, int decimals);

// {"p10":..,"median":..,"p90":..} — the same summary in a BENCH payload.
void WriteSummaryJson(std::ostream& os, const PercentileSummary& s);

}  // namespace sds::eval
