//===- benchmark/Calibration.cpp - Host-speed gauge -----------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Calibration.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <map>
#include <unordered_map>

using namespace dbds_bench;

namespace {

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double medianOf(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2.0;
}

} // namespace

uint64_t dbds_bench::threadCpuNs() {
  timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(TS.tv_nsec);
}

SpeedGauge::SpeedGauge() : Keys(8192), Evict(4u << 20, 1) {
  uint64_t State = 42;
  for (uint64_t &K : Keys)
    K = splitmix(State);
}

void SpeedGauge::sample() {
  // Start from the same cache state every time, whatever ran before:
  // touch one byte per cache line of a buffer twice the L2 size.
  for (size_t I = 0; I < Evict.size(); I += 64)
    ++Evict[I];

  const uint64_t T0 = threadCpuNs();
  // Build a hash map of 4096 keys and an ordered map of 2048, then probe
  // the hash map with all 8192 keys, half of them absent.
  std::unordered_map<uint64_t, uint64_t> Hashed;
  std::map<uint64_t, uint64_t> Ordered;
  for (size_t I = 0; I != 4096; ++I) {
    Hashed[Keys[I]] = I;
    if (I < 2048)
      Ordered[Keys[I]] = I;
  }
  uint64_t Result = Ordered.begin()->second;
  for (uint64_t K : Keys) {
    auto It = Hashed.find(K);
    if (It != Hashed.end())
      Result += It->second;
  }
  SamplesMs.push_back(static_cast<double>(threadCpuNs() - T0) / 1e6);

  if (SamplesMs.size() == 1)
    FirstResult = Result;
  else if (Result != FirstResult)
    Consistent = false;
}

double SpeedGauge::scale() const {
  if (SamplesMs.empty())
    return 1.0;
  const size_t N = std::min<size_t>(SamplesMs.size(), 3);
  const double G =
      medianOf(std::vector<double>(SamplesMs.end() - N, SamplesMs.end()));
  return std::pow(ReferenceMs / G, Sensitivity);
}

double SpeedGauge::medianMs() const { return medianOf(SamplesMs); }
