// Figures 13-18: sensitivity analysis of the SDS parameters.
//
//   Fig 13  EWMA smoothing factor alpha      (k-means, bus locking)
//   Fig 14  boundary factor k                (H_C re-derived via Chebyshev)
//   Fig 15  window size W
//   Fig 16  sliding step dW
//   Fig 17  SDS/P window W_P                 (FaceNet)
//   Fig 18  SDS/P sliding step dW_P          (FaceNet)
//
// Each row reports recall, specificity and detection delay (medians over
// seeded runs) for one parameter value, everything else at Table 1 defaults.
#include <iostream>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "eval/aggregate.h"
#include "eval/report.h"
#include "stats/chebyshev.h"

namespace {

using namespace sds;

// One figure's slice of the sensitivity grid: cells [begin, end).
struct Figure {
  std::string title;
  std::string param;
  std::string shape;
  std::size_t begin = 0;
  std::size_t end = 0;
};

void PrintFigure(const Figure& figure, const std::vector<double>& values,
                 const std::vector<eval::AggregatedDetection>& aggs) {
  std::cout << figure.title << "\n\n";
  TextTable table;
  table.SetHeader({figure.param, "recall", "specificity", "delay (s)"});
  for (std::size_t i = figure.begin; i < figure.end; ++i) {
    table.Row(FormatFixed(values[i], 3), FormatFixed(aggs[i].recall.median, 2),
              FormatFixed(aggs[i].specificity.median, 2),
              aggs[i].detected_runs > 0
                  ? FormatFixed(aggs[i].delay_seconds.median, 1)
                  : "-");
  }
  table.Print(std::cout);
  std::cout << "shape check (paper): " << figure.shape << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {{"runs", "seeded runs per parameter value (default 2)"},
                    {"seed", "base simulation seed (default 61)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const int runs = static_cast<int>(flags.GetInt("runs", 2));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 61));

  bench::PrintBenchHeader(
      std::cout, "bench_fig13_18_sensitivity",
      "Figures 13-18: sensitivity of alpha, k, W, dW (k-means) and W_P, "
      "dW_P (FaceNet)");

  // Every figure's cells go into one grid, run in one call.
  std::vector<eval::DetectionRunConfig> cells;
  std::vector<double> values;
  std::vector<Figure> figures;
  auto add_cell = [&](double value, const std::string& app,
                      const detect::DetectorParams& params,
                      eval::Scheme scheme) {
    eval::DetectionRunConfig cfg;
    cfg.app = app;
    cfg.attack = eval::AttackKind::kBusLock;
    cfg.scheme = scheme;
    cfg.params = params;
    cells.push_back(cfg);
    values.push_back(value);
  };
  auto end_figure = [&](std::string title, std::string param,
                        std::string shape) {
    const std::size_t begin = figures.empty() ? 0 : figures.back().end;
    figures.push_back({std::move(title), std::move(param), std::move(shape),
                       begin, cells.size()});
  };

  // Figure 13: alpha.
  for (double alpha : {0.05, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    detect::DetectorParams p;
    p.alpha = alpha;
    add_cell(alpha, "kmeans", p, eval::Scheme::kSdsB);
  }
  end_figure("Figure 13: sensitivity of the EWMA smoothing factor alpha",
             "alpha",
             "accuracy stays near 1 over a wide range; delay shrinks "
             "slightly as alpha grows (less smoothing inertia)");

  // Figure 14: k, with H_C re-derived for 99.9% confidence (Equation 4).
  for (double k : {1.1, 1.125, 1.25, 1.5, 2.0}) {
    detect::DetectorParams p;
    p.boundary_k = k;
    p.h_c = RequiredConsecutiveViolations(k, 0.999);
    add_cell(k, "kmeans", p, eval::Scheme::kSdsB);
  }
  end_figure(
      "Figure 14: sensitivity of the boundary factor k (H_C from "
      "Chebyshev at 99.9%)",
      "k",
      "specificity rises and recall falls slightly with k; delay shrinks "
      "as the matching H_C drops");

  // Figure 15: W.
  for (std::size_t w : {100u, 200u, 500u, 1000u}) {
    detect::DetectorParams p;
    p.window = w;
    p.step = std::min(p.step, w);
    add_cell(static_cast<double>(w), "kmeans", p, eval::Scheme::kSdsB);
  }
  end_figure("Figure 15: sensitivity of the window size W", "W",
             "accuracy barely moves (W=100 may dip); delay grows with W");

  // Figure 16: dW.
  for (std::size_t dw : {20u, 50u, 100u, 200u}) {
    detect::DetectorParams p;
    p.step = dw;
    add_cell(static_cast<double>(dw), "kmeans", p, eval::Scheme::kSdsB);
  }
  end_figure("Figure 16: sensitivity of the sliding step dW", "dW",
             "accuracy flat; delay grows roughly linearly with dW "
             "(H_C * dW * T_PCM lower bound)");

  // Figure 17: W_P (as a multiple of the period p).
  for (double mult : {2.0, 4.0, 6.0}) {
    detect::DetectorParams p;
    p.wp_multiplier = mult;
    add_cell(mult, "facenet", p, eval::Scheme::kSdsP);
  }
  end_figure("Figure 17: sensitivity of the SDS/P window W_P (x period)",
             "W_P/p",
             "accuracy flat; delay grows with W_P (normal values "
             "dominate the window longer)");

  // Figure 18: dW_P.
  for (std::size_t dwp : {5u, 10u, 15u, 25u}) {
    detect::DetectorParams p;
    p.delta_wp = dwp;
    add_cell(static_cast<double>(dwp), "facenet", p, eval::Scheme::kSdsP);
  }
  end_figure("Figure 18: sensitivity of the SDS/P sliding step dW_P", "dW_P",
             "accuracy flat; delay grows with dW_P "
             "(H_P * dW_P * dW * T_PCM lower bound)");

  const auto aggs =
      eval::AggregateDetection(cells, runs, seed, eval::DefaultThreads());
  for (const auto& figure : figures) PrintFigure(figure, values, aggs);
  return 0;
}
