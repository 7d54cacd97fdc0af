//===- benchmark/Calibration.h - Host-speed gauge ---------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's clock. Every end-to-end timing is thread CPU time
/// converted to *reference time*: the time the work would have taken at
/// the host speed where the gauge kernel below takes
/// SpeedGauge::ReferenceMs.
///
/// Thread CPU time leaves out the time the thread waited for a core, or
/// its vCPU for the hypervisor, but not the slowdown a busy neighbour
/// causes while the thread runs (shared caches, memory bandwidth, a
/// sibling hyperthread). On the shared measuring host that slowdown comes
/// and goes over minutes and reached 1.65x on the compile. The gauge
/// kernel does the same kind of work a compiler does — it builds and
/// probes node-based hash and ordered maps: allocation, hashing, pointer
/// chasing, unpredictable branches — so it slows down by nearly the same
/// factor. It starts from a cache emptied of its own data, so its time
/// does not depend on what the code under test left in the cache, and so
/// it feels contention for the shared cache as the compile does. Sampled
/// around every measured batch, it turns those slowdowns into a scale
/// factor. It touches no DBDS code; never edit it, since its value lies in
/// being identical on every commit.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_BENCHMARK_CALIBRATION_H
#define DBDS_BENCHMARK_CALIBRATION_H

#include <cstdint>
#include <vector>

namespace dbds_bench {

/// CPU time of the calling thread, in nanoseconds.
uint64_t threadCpuNs();

class SpeedGauge {
public:
  /// About the kernel's CPU time on the quiet reference host (4 vCPUs of
  /// an Intel Xeon, GCC 12.2, RelWithDebInfo), in milliseconds.
  static constexpr double ReferenceMs = 0.7;

  /// How much more a busy neighbour slows the compile than the kernel, in
  /// log terms: when the kernel runs g times slower, the compile runs
  /// about g^Sensitivity times slower. Fitted on 30 loaded runs, where
  /// with 1 the scaled times still grew as about g^0.2.
  static constexpr double Sensitivity = 1.2;

  SpeedGauge();

  /// Runs the kernel once and records its CPU time.
  void sample();

  /// The factor that converts CPU time measured since the third-last
  /// sample into reference time: (ReferenceMs / g)^Sensitivity, where g
  /// is the median of the last three samples, so one sample hit by an
  /// interrupt does not skew it.
  double scale() const;

  /// Median of every sample, in milliseconds (0 without samples).
  double medianMs() const;

  /// False once a run of the kernel computed a different result from the
  /// first, which would mean the kernel no longer does the same work.
  bool consistent() const { return Consistent; }

private:
  std::vector<uint64_t> Keys;
  std::vector<unsigned char> Evict; ///< Swept before each sample.
  std::vector<double> SamplesMs;
  uint64_t FirstResult = 0;
  bool Consistent = true;
};

} // namespace dbds_bench

#endif // DBDS_BENCHMARK_CALIBRATION_H
