#include "obs/slo.h"

#include <ostream>

#include "common/check.h"

namespace sds::obs {

namespace {

bool Compare(double value, SloOp op, double threshold) {
  switch (op) {
    case SloOp::kLt:
      return value < threshold;
    case SloOp::kLe:
      return value <= threshold;
    case SloOp::kGt:
      return value > threshold;
    case SloOp::kGe:
      return value >= threshold;
  }
  return false;
}

}  // namespace

const char* SloAggName(SloAgg agg) {
  switch (agg) {
    case SloAgg::kMean:
      return "mean";
    case SloAgg::kP50:
      return "p50";
    case SloAgg::kP95:
      return "p95";
    case SloAgg::kP99:
      return "p99";
    case SloAgg::kMin:
      return "min";
    case SloAgg::kMax:
      return "max";
    case SloAgg::kCount:
      return "count";
    case SloAgg::kSum:
      return "sum";
  }
  return "?";
}

const char* SloOpName(SloOp op) {
  switch (op) {
    case SloOp::kLt:
      return "<";
    case SloOp::kLe:
      return "<=";
    case SloOp::kGt:
      return ">";
    case SloOp::kGe:
      return ">=";
  }
  return "?";
}

const char* SloLevelName(SloLevel level) {
  switch (level) {
    case SloLevel::kOk:
      return "ok";
    case SloLevel::kWarn:
      return "warn";
    case SloLevel::kPage:
      return "page";
  }
  return "?";
}

double SloAggregate(const RollupRow& row, SloAgg agg) {
  switch (agg) {
    case SloAgg::kMean:
      return row.mean();
    case SloAgg::kP50:
      return row.p50;
    case SloAgg::kP95:
      return row.p95;
    case SloAgg::kP99:
      return row.p99;
    case SloAgg::kMin:
      return row.min;
    case SloAgg::kMax:
      return row.max;
    case SloAgg::kCount:
      return static_cast<double>(row.count);
    case SloAgg::kSum:
      return row.sum;
  }
  return 0.0;
}

SloEngine::SloEngine(std::vector<SloRule> rules, const FleetRollup* rollup)
    : rules_(std::move(rules)), rollup_(rollup) {
  SDS_CHECK(rollup != nullptr, "SloEngine needs a rollup for metric names");
  state_.resize(rules_.size());
  status_.resize(rules_.size());
}

void SloEngine::OnWindow(std::int64_t window,
                         std::span<const RollupRow> rows) {
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const SloRule& rule = rules_[ri];
    RuleState& st = state_[ri];
    if (!st.metric.has_value()) {
      const std::vector<std::string>& names = rollup_->metric_names();
      for (std::size_t m = 0; m < names.size(); ++m) {
        if (names[m] == rule.metric) {
          st.metric = static_cast<MetricId>(m);
          break;
        }
      }
    }

    bool violated = false;
    std::uint32_t worst_host = 0;
    std::uint32_t worst_tenant = 0;
    double worst_value = 0.0;
    if (st.metric.has_value()) {
      for (const RollupRow& row : rows) {
        if (row.key.metric != *st.metric) continue;
        const double v = SloAggregate(row, rule.agg);
        if (Compare(v, rule.op, rule.threshold)) continue;  // within SLO
        // Breach. The "worst" offender is the one furthest past the
        // threshold in the failing direction.
        const bool upper_bound =
            rule.op == SloOp::kLt || rule.op == SloOp::kLe;
        const bool worse =
            !violated || (upper_bound ? v > worst_value : v < worst_value);
        if (worse) {
          worst_host = row.key.host;
          worst_tenant = row.key.tenant;
          worst_value = v;
        }
        violated = true;
      }
    }

    st.trailing.push_back(violated);
    if (violated) ++st.trailing_violations;
    while (static_cast<std::int64_t>(st.trailing.size()) > rule.burn_window) {
      if (st.trailing.front()) --st.trailing_violations;
      st.trailing.pop_front();
    }
    ++st.status.windows_seen;
    if (violated) ++st.status.windows_violating;
    const double rate = static_cast<double>(st.trailing_violations) /
                        static_cast<double>(st.trailing.size());
    st.status.burn = rate / rule.budget;

    SloLevel level = SloLevel::kOk;
    if (st.status.burn >= rule.page_burn) {
      level = SloLevel::kPage;
    } else if (st.status.burn >= rule.warn_burn) {
      level = SloLevel::kWarn;
    }
    if (level != st.status.level) {
      SloAlert alert;
      alert.window = window;
      alert.rule = rule.name;
      alert.level = level;
      alert.burn = st.status.burn;
      alert.host = worst_host;
      alert.tenant = worst_tenant;
      alert.observed = worst_value;
      alerts_.push_back(alert);
      st.status.level = level;
    }
    status_[ri] = st.status;
  }
}

std::size_t SloEngine::burning_rules() const {
  std::size_t n = 0;
  for (const RuleStatus& s : status_) {
    if (s.level != SloLevel::kOk) ++n;
  }
  return n;
}

void SloEngine::WriteJsonl(std::ostream& os) const {
  for (const SloAlert& a : alerts_) {
    os << "{\"type\":\"slo_alert\",\"window\":" << a.window << ",\"rule\":\""
       << a.rule << "\",\"level\":\"" << SloLevelName(a.level)
       << "\",\"burn\":" << a.burn << ",\"host\":" << a.host
       << ",\"tenant\":" << a.tenant << ",\"observed\":" << a.observed
       << "}\n";
  }
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    const RuleStatus& st = status_[i];
    os << "{\"type\":\"slo_status\",\"rule\":\"" << rule.name
       << "\",\"expr\":\"" << SloAggName(rule.agg) << "(" << rule.metric
       << ") " << SloOpName(rule.op) << " " << rule.threshold
       << "\",\"level\":\"" << SloLevelName(st.level)
       << "\",\"burn\":" << st.burn << ",\"windows\":" << st.windows_seen
       << ",\"violating\":" << st.windows_violating << "}\n";
  }
}

std::vector<SloRule> DefaultFleetSloRules() {
  return {
      // Detection latency: alarms must trigger within 600 ticks (6 s of
      // virtual time) at the 95th percentile.
      {.name = "detect-latency",
       .metric = "detect.latency_ticks",
       .agg = SloAgg::kP95,
       .op = SloOp::kLe,
       .threshold = 600,
       .budget = 0.05,
       .burn_window = 12,
       .warn_burn = 1,
       .page_burn = 2},
      // False-alarm budget: any clean-window alarm consumes budget.
      {.name = "false-alarm-budget",
       .metric = "detect.false_alarm",
       .agg = SloAgg::kMax,
       .op = SloOp::kLe,
       .threshold = 0,
       .budget = 0.02,
       .burn_window = 24,
       .warn_burn = 1,
       .page_burn = 3},
      // Mitigation convergence: throttle escalation settles within 400
      // ticks at the tail.
      {.name = "mitigation-convergence",
       .metric = "mitigation.converge_ticks",
       .agg = SloAgg::kP99,
       .op = SloOp::kLe,
       .threshold = 400,
       .budget = 0.05,
       .burn_window = 12,
       .warn_burn = 1,
       .page_burn = 2},
      // Sampler health: at least 90% of ticks deliver a usable sample.
      {.name = "sampler-health",
       .metric = "sampler.delivery_ratio",
       .agg = SloAgg::kMean,
       .op = SloOp::kGe,
       .threshold = 0.9,
       .budget = 0.1,
       .burn_window = 12,
       .warn_burn = 1,
       .page_burn = 2},
  };
}

}  // namespace sds::obs
