//===- bench/bench_related_splitting.cpp - §7 Self-splitting comparison ---===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Paper §7 positions DBDS against the Self compiler's splitting
// (Chambers): Self duplicates by path frequency (weight) and size cost
// but does "not analyze in advance" what a duplication enables; DBDS
// "extended their ideas ... using a fast duplication simulation algorithm
// in order to estimate the peak performance impact of the duplication
// before doing it." This bench quantifies that claim: both heuristics run
// under the same size budget; DBDS should buy more peak performance per
// unit of code growth because it skips benefit-free hot merges and takes
// benefit-rich cold ones.
//
//===----------------------------------------------------------------------===//

#include "dbds/DBDSPhase.h"
#include "dbds/FrequencySplitting.h"
#include "opts/Phase.h"
#include "support/Statistics.h"
#include "vm/Interpreter.h"
#include "workloads/Suites.h"

#include <cmath>
#include <cstdio>

using namespace dbds;

namespace {

struct Outcome {
  uint64_t Cycles = 0, Size = 0;
  unsigned Dups = 0;
};

Outcome measure(const GeneratorConfig &GC, int Mode /*0 base 1 dbds 2 split*/) {
  GeneratedWorkload W = generateWorkload(GC);
  Outcome Out;
  Interpreter Interp(*W.Mod);
  Interp.enableCodeSizePenalty(192, 160, 1u << 20);
  auto Fs = W.Mod->functions();
  for (unsigned FI = 0; FI != Fs.size(); ++FI) {
    Function &F = *Fs[FI];
    ProfileSummary P;
    for (const auto &A : W.TrainInputs[FI]) {
      Interp.reset();
      Interp.run(F, ArrayRef<int64_t>(A), 1u << 24, &P);
    }
    applyProfile(F, P);
    PhaseManager PM = PhaseManager::standardPipeline(false, W.Mod.get());
    PM.run(F);
    if (Mode == 1) {
      DBDSConfig DC;
      DC.ClassTable = W.Mod.get();
      DC.Verify = false;
      Out.Dups += runDBDS(F, DC).DuplicationsPerformed;
    } else if (Mode == 2) {
      SplittingConfig SC;
      SC.ClassTable = W.Mod.get();
      SC.Verify = false;
      Out.Dups += runFrequencySplitting(F, SC).Duplications;
    }
    Out.Size += F.estimatedCodeSize();
    for (const auto &A : W.EvalInputs[FI]) {
      Interp.reset();
      Out.Cycles += Interp.run(F, ArrayRef<int64_t>(A), 1u << 24).DynamicCycles;
    }
  }
  return Out;
}

} // namespace

int main() {
  printf("# §7 related work: DBDS vs Self-style frequency splitting\n");
  printf("# same size budget; peak %% vs baseline, cs %% vs baseline\n\n");
  printf("%-22s | %18s | %18s\n", "benchmark", "DBDS peak cs dups",
         "split peak cs dups");

  std::vector<double> DBDSPeak, SplitPeak, DBDSCs, SplitCs;
  for (const SuiteSpec &Suite : allSuites()) {
    for (unsigned BI : {1u, 5u}) {
      if (BI >= Suite.Benchmarks.size())
        continue;
      const BenchmarkSpec &Spec = Suite.Benchmarks[BI];
      Outcome Base = measure(Spec.Config, 0);
      Outcome DBDS = measure(Spec.Config, 1);
      Outcome Split = measure(Spec.Config, 2);
      auto PeakPct = [&](const Outcome &O) {
        return (static_cast<double>(Base.Cycles) /
                    static_cast<double>(O.Cycles) -
                1.0) *
               100.0;
      };
      auto SizePct = [&](const Outcome &O) {
        return (static_cast<double>(O.Size) /
                    static_cast<double>(Base.Size) -
                1.0) *
               100.0;
      };
      printf("%-22s | %6.2f %5.2f %4u | %6.2f %5.2f %4u\n",
             (Suite.Name + "/" + Spec.Name).c_str(), PeakPct(DBDS),
             SizePct(DBDS), DBDS.Dups, PeakPct(Split), SizePct(Split),
             Split.Dups);
      DBDSPeak.push_back(1.0 + PeakPct(DBDS) / 100.0);
      SplitPeak.push_back(1.0 + PeakPct(Split) / 100.0);
      DBDSCs.push_back(1.0 + SizePct(DBDS) / 100.0);
      SplitCs.push_back(1.0 + SizePct(Split) / 100.0);
    }
  }
  auto Geo = [](std::vector<double> &V) {
    return (geometricMean(ArrayRef<double>(V)) - 1.0) * 100.0;
  };
  const double DBDSPeakPct = Geo(DBDSPeak), DBDSSizePct = Geo(DBDSCs);
  const double SplitPeakPct = Geo(SplitPeak), SplitSizePct = Geo(SplitCs);
  printf("\ngeomean: DBDS peak %+.2f%% at %+.2f%% size; splitting peak "
         "%+.2f%% at %+.2f%% size\n",
         DBDSPeakPct, DBDSSizePct, SplitPeakPct, SplitSizePct);
  // Peak points bought per point of code growth; growth-free peak is
  // infinitely cheap.
  auto PerSizePoint = [](double PeakPct, double SizePct) {
    return SizePct > 0.0 ? PeakPct / SizePct : HUGE_VAL;
  };
  const double DBDSRatio = PerSizePoint(DBDSPeakPct, DBDSSizePct);
  const double SplitRatio = PerSizePoint(SplitPeakPct, SplitSizePct);
  printf("peak points per size point: DBDS %.2f, splitting %.2f\n",
         DBDSRatio, SplitRatio);
  printf("§7 shape (DBDS buys more peak per unit of code growth): %s\n",
         DBDSRatio > SplitRatio ? "holds" : "does NOT hold");
  return 0;
}
