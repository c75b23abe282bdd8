//===- bench_fig17_vgg.cpp - Paper Figures 17-18 (and Table II) -----------===//
//
// Per-layer GFLOPS for the 9 unique VGG16 im2row GEMMs. Expected shape
// (paper Fig. 17): EXO best on a few layers, BLIS-with-prefetch on several,
// ALG+BLIS on a couple; overall close.
//
// Then the aggregated GEMM time for one inference pass (batch 1): the same
// per-layer times summed over every layer instance (vgg16_pass rows).
// Expected shape (paper Fig. 18): ALG+EXO and BLIS close at the top.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "exo/support/Str.h"

#include "dnn/Models.h"

int main(int Argc, char **Argv) {
  fig::Context Ctx("fig17_vgg", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::vector<dnn::LayerGemm> Layers =
      fig::smokeSlice(dnn::vgg16Layers(), Opt.Smoke);

  std::printf("Table II: VGG16 im2row GEMM shapes\n");
  benchutil::Table Tab("table2_vgg16_shapes",
                       {"layer", "layers", "m", "n", "k"}, Opt.Csv);
  for (const dnn::LayerGemm &L : Layers)
    Tab.addRow({std::to_string(L.Id), L.Layers, std::to_string(L.M),
                std::to_string(L.N), std::to_string(L.K)});
  Tab.print();

  std::printf("\nFigure 17: per-layer performance, VGG16\n");
  benchutil::Table T("fig17_vgg_gflops",
                     fig::seriesHeader("layer", {"winner"}), Opt.Csv);
  fig::PassTime Pass;
  for (const dnn::LayerGemm &L : Layers) {
    std::vector<fig::SeriesPoint> Pts =
        fig::gemmSeriesRun(L.M, L.N, L.K, Opt.Seconds);
    Pass.add(Pts, L.flops(), L.Count);
    size_t Win = 0;
    for (size_t I = 1; I < Pts.size(); ++I)
      if (Pts[I].Gflops > Pts[Win].Gflops)
        Win = I;
    std::vector<std::string> Cells{std::to_string(L.Id)};
    for (const fig::SeriesPoint &Pt : Pts)
      Cells.push_back(exo::strf("%.2f", Pt.Gflops));
    Cells.push_back(fig::seriesNames()[Win]);
    T.addRow(std::move(Cells));
    fig::addSeriesRows(Ctx, "layer" + std::to_string(L.Id), L.M, L.N, L.K,
                       Pts);
  }
  T.print();

  std::printf("\nFigure 18: aggregated inference GEMM time, VGG16\n");
  Pass.report(Ctx, "fig18_vgg_time", "vgg16_pass");
  return Ctx.finish();
}
