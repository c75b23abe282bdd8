//===- Host.h - Host record, kernel ceiling and copy ceiling --------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every run records about the machine (CPU model, clock, ISA flags,
/// hardware threads, GEMM team size, JIT compiler identity) and the two
/// ceilings the per-layer metrics are stated against: the plan's main
/// generated kernel in solo mode (also the start/end drift probe) and
/// memcpy bandwidth.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include "Common.h"

#include "gemm/MicroKernel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// The host record as one JSON object.
std::string hostRecordJson();

/// Times the MR x NR main kernel of a plan on packed panels at Kc = 512,
/// C tile resident (the paper's solo mode). A fixed call count makes it the
/// drift probe: the same loop at the start and the end of a run.
class SoloProbe {
public:
  /// Resolves the generated kernel for the tile; false if none exists.
  bool init(int64_t MR, int64_t NR);
  /// Best of \p Trials timings of the fixed loop, in seconds.
  double time(int Trials = 15);
  /// GFLOP/s of the fixed loop at \p Seconds.
  double gflops(double Seconds) const;

private:
  static constexpr int64_t Kc = 512;
  int64_t MR = 0, NR = 0, Calls = 0;
  gemm::KernelFn Fn = nullptr;
  std::vector<float> Ac, Bc, C;
};

/// memcpy bandwidth in GB/s, counting bytes read plus bytes written, best
/// of a few copies between two \p Bytes buffers.
double memCopyGbps(size_t Bytes);

/// Last-level cache size in bytes (0 when the host does not say).
size_t llcBytes();

} // namespace pb

#endif // PERFBENCH_HOST_H
