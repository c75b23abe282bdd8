//===- bench_fig15_resnet.cpp - Paper Figures 15-16 (and Table I) ---------===//
//
// Per-layer GFLOPS for the 20 unique ResNet50 v1.5 im2row GEMMs. Expected
// shape (paper Fig. 15): ALG+EXO is the best option on roughly half the
// layers (the edge-rich ones), BLIS-with-prefetch on most of the rest.
//
// Then the aggregated GEMM time for one inference pass (batch 1): the same
// per-layer times summed over all 53 layer instances (resnet50_pass rows).
// Expected shape (paper Fig. 16): ALG+EXO lowest total, then BLIS,
// ALG+BLIS, ALG+NEON.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "exo/support/Str.h"

#include "dnn/Models.h"

int main(int Argc, char **Argv) {
  fig::Context Ctx("fig15_resnet", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::vector<dnn::LayerGemm> Layers =
      fig::smokeSlice(dnn::resnet50Layers(), Opt.Smoke);

  std::printf("Table I: ResNet50 v1.5 im2row GEMM shapes\n");
  benchutil::Table Tab("table1_resnet50_shapes",
                       {"layer", "layers", "m", "n", "k"}, Opt.Csv);
  for (const dnn::LayerGemm &L : Layers)
    Tab.addRow({std::to_string(L.Id), L.Layers, std::to_string(L.M),
                std::to_string(L.N), std::to_string(L.K)});
  Tab.print();

  std::printf("\nFigure 15: per-layer performance, ResNet50 v1.5\n");
  benchutil::Table T("fig15_resnet_gflops",
                     fig::seriesHeader("layer", {"winner"}), Opt.Csv);
  int ExoWins = 0;
  fig::PassTime Pass;
  for (const dnn::LayerGemm &L : Layers) {
    std::vector<fig::SeriesPoint> Pts =
        fig::gemmSeriesRun(L.M, L.N, L.K, Opt.Seconds);
    Pass.add(Pts, L.flops(), L.Count);
    size_t Win = 0;
    for (size_t I = 1; I < Pts.size(); ++I)
      if (Pts[I].Gflops > Pts[Win].Gflops)
        Win = I;
    if (fig::seriesNames()[Win] == "ALG+EXO")
      ++ExoWins;
    std::vector<std::string> Cells{std::to_string(L.Id)};
    for (const fig::SeriesPoint &Pt : Pts)
      Cells.push_back(exo::strf("%.2f", Pt.Gflops));
    Cells.push_back(fig::seriesNames()[Win]);
    T.addRow(std::move(Cells));
    fig::addSeriesRows(Ctx, "layer" + std::to_string(L.Id), L.M, L.N, L.K,
                       Pts);
  }
  T.print();
  std::printf("ALG+EXO is the best option for %d of %zu layers "
              "(paper: 9 of 20 on Carmel).\n",
              ExoWins, Layers.size());

  std::printf("\nFigure 16: aggregated inference GEMM time, ResNet50 v1.5\n");
  Pass.report(Ctx, "fig16_resnet_time", "resnet50_pass");
  return Ctx.finish();
}
