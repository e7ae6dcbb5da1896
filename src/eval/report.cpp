#include "eval/report.h"

#include <ostream>

#include "common/csv.h"
#include "common/types.h"

namespace sds::eval {

void PrintParams(std::ostream& os, const detect::DetectorParams& params,
                 const detect::KsTestParams& ks) {
  TextTable t;
  t.SetHeader({"parameter", "value"});
  t.Row("T_PCM (s)", FormatFixed(kDefaultTpcmSeconds, 2));
  t.Row("window W", params.window);
  t.Row("step dW", params.step);
  t.Row("EWMA alpha", FormatFixed(params.alpha, 2));
  t.Row("boundary k", FormatFixed(params.boundary_k, 3));
  t.Row("H_C", params.h_c);
  t.Row("W_P multiplier", FormatFixed(params.wp_multiplier, 1));
  t.Row("dW_P", params.delta_wp);
  t.Row("H_P", params.h_p);
  t.Row("period tolerance", FormatFixed(params.period_tolerance, 2));
  t.Row("KStest L_R (ticks)", static_cast<long long>(ks.l_r));
  t.Row("KStest W_R (ticks)", static_cast<long long>(ks.w_r));
  t.Row("KStest L_M (ticks)", static_cast<long long>(ks.l_m));
  t.Row("KStest W_M (ticks)", static_cast<long long>(ks.w_m));
  t.Row("KStest alpha", FormatFixed(ks.alpha, 2));
  t.Row("KStest consecutive", ks.consecutive_rejections);
  os << "Parameters (paper Table 1 + Section 3.2 KStest settings):\n";
  t.Print(os);
  os << '\n';
}

std::string FormatSummary(const PercentileSummary& s, int decimals) {
  return FormatFixed(s.median, decimals) + " [" +
         FormatFixed(s.p10, decimals) + ", " + FormatFixed(s.p90, decimals) +
         "]";
}

void WriteSummaryJson(std::ostream& os, const PercentileSummary& s) {
  os << "{\"p10\":" << s.p10 << ",\"median\":" << s.median
     << ",\"p90\":" << s.p90 << "}";
}

}  // namespace sds::eval
