//===- workloads/CompileCache.h - Content-addressed compile cache *- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, content-addressed cache over per-function compiles.
/// Identical generated functions recur across benchmark seeds and configs
/// (ROADMAP: they recompile from scratch today); the cache keys each
/// compile by a 128-bit stable hash of the *canonical pristine-IR
/// printing* plus a fingerprint of everything else that can change the
/// outcome — configuration, budgets, fault-injection stream — and a hit
/// replays the memoized optimized IR, counters, decision log,
/// deterministic histograms, and measurements, so a warm run's reports are
/// byte-identical to a cold run's deterministic sections (DESIGN.md §13).
///
/// Caching a *speculative* pipeline is only sound under strict rules:
///
///  - Eligibility: only clean compiles are stored — no rollbacks, no run
///    failures, no quarantined phases, no diagnostics or log lines, no
///    budget expiry. Anything timing-driven or benchmark-labelled
///    recompiles every time; the common (clean) case is exactly where the
///    redundant work is.
///  - Schedule independence: tasks only *probe* while the batch runs;
///    inserts happen at the serial index-ordered join. Hit/miss counts —
///    and therefore every counter total — are identical at --jobs=1 and
///    --jobs=N.
///  - Fail-open: a corrupt, truncated, version-mismatched, or otherwise
///    unreplayable entry (on disk or in memory) is a miss, never an
///    error; the cold path is always correct.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_WORKLOADS_COMPILECACHE_H
#define DBDS_WORKLOADS_COMPILECACHE_H

#include "analysis/SimAudit.h"
#include "support/Budget.h"
#include "support/StableHash.h"
#include "telemetry/Counters.h"
#include "telemetry/DecisionLog.h"
#include "telemetry/Metrics.h"

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dbds {

class Function;
class Module;

/// Cache keys are 128-bit stable digests (support/StableHash.h): FNV-1a
/// over the canonical pristine IR, the input tuples, and the fingerprint.
using CompileCacheKey = Hash128;

/// Everything besides the pristine IR and the run inputs that can change a
/// compile's observable outcome. Every field perturbs the key (the
/// key-sensitivity tests enumerate them); forgetting one here would replay
/// a stale result, so new outcome-affecting knobs must be added.
struct CompileCacheFingerprint {
  /// Keyspace salt: entries from different pipelines (runner vs fuzzdiff)
  /// never collide even on identical IR, because their compile procedures
  /// differ.
  std::string Tool = "runner";
  unsigned Config = 0; ///< RunConfig as an integer.
  bool Verify = false;
  bool FailFast = false;
  double CompileBudgetMs = 0.0;
  bool SimAudit = false;
  bool WantDiags = false;
  bool WantDecisions = false;
  bool MetricsEnabled = false;
  /// Fault-injection stream identity: base injector parameters plus the
  /// per-task derived seed (byte-identical functions at different task
  /// indices draw different fault streams, so the derived seed — not the
  /// index — is what the outcome depends on).
  bool HasInjector = false;
  uint64_t InjectorBaseSeed = 0;
  double InjectorRate = 0.0;
  uint64_t TaskFaultSeed = 0;
};

/// Hashes one compile's full identity into its cache key.
CompileCacheKey
computeCompileCacheKey(const std::string &PristineIR,
                       const std::vector<std::vector<int64_t>> &TrainInputs,
                       const std::vector<std::vector<int64_t>> &EvalInputs,
                       const CompileCacheFingerprint &FP);

/// The canonical printing the cache hashes and replays for \p F: the
/// module's class table followed by printFunction(F). The printer renames
/// values and blocks sequentially in print order, so structurally
/// identical functions print — and therefore hash — identically.
std::string printCacheableUnit(const Module *M, const Function *F);

/// One memoized compile: everything a hit must replay for the warm run to
/// be observably identical to the cold one (modulo wall-clock timing and
/// the cache.* counters themselves).
struct CompileCacheEntry {
  uint64_t CodeSize = 0;
  unsigned Duplications = 0;
  DegradationLevel Degradation = DegradationLevel::None;
  uint64_t DynamicCycles = 0;
  uint64_t ResultHash = 0;
  /// Fault-injection sites the cold compile visited (absorbed into the
  /// base injector at join so summary lines match cold runs; injected
  /// faults imply rollbacks, which make a compile ineligible, so the
  /// fault count of a stored entry is always zero).
  unsigned FaultSites = 0;
  SimAuditCounts Audit;
  /// The decision-log slice, exactly as recorded (doubles round-trip by
  /// bit pattern, so replayed JSONL remarks are byte-identical).
  std::vector<DuplicationDecision> Decisions;
  /// Telemetry-counter deltas of the compile, by qualified name. The
  /// cache.* component is excluded by construction — hit/miss accounting
  /// is the one documented divergence between warm and cold runs.
  std::vector<CounterSample> Counters;
  /// Deterministic-class histogram records of the compile (Timing-class
  /// histograms are wall-clock and never replayed).
  struct HistogramState {
    std::string Component;
    std::string Name;
    MetricUnit Unit = MetricUnit::Count;
    MetricClass Class = MetricClass::Deterministic;
    Histogram H;
  };
  std::vector<HistogramState> Histograms;
  /// Optimized IR as a parseable unit (class table + canonical function
  /// printing).
  std::string OptimizedIR;
};

/// Serializes \p E to the versioned on-disk text format ("dbds-compile-
/// cache v1"): a header line, key line, field lines with length-prefixed
/// raw blocks (doubles as hex bit patterns — JSON numbers are lossy for
/// them), and a trailing FNV-64 checksum line.
std::string serializeCacheEntry(const CompileCacheKey &Key,
                                const CompileCacheEntry &E);

/// Parses \p Text back into \p Out. Returns false — the fail-open miss —
/// on version mismatch, checksum mismatch, truncation, malformed fields,
/// or a key line that does not match \p Expect.
bool parseCacheEntry(const std::string &Text, const CompileCacheKey &Expect,
                     CompileCacheEntry &Out);

/// A hit, resolved against the live process: parsed module + function,
/// counter pointers, histogram pointers. Resolution happens *before* the
/// caller mutates anything, so an unresolvable entry degrades to a miss
/// with the cold path untouched.
struct PreparedReplay {
  std::unique_ptr<Module> Mod;
  Function *Fn = nullptr;
  std::vector<std::pair<TelemetryCounter *, uint64_t>> Counters;
  std::vector<std::pair<TelemetryHistogram *, Histogram>> Histograms;
};

/// Resolves \p E for replay. False (fail-open) when the IR does not parse
/// back, the function is missing, or a counter name is unknown to this
/// process.
bool prepareReplay(const CompileCacheEntry &E, PreparedReplay &R);

/// The cache: sharded in-memory map plus an optional on-disk directory
/// (one file per key, named by the hex digest). Probes are thread-safe
/// and lock only the key's shard; inserts must be serial (the compile
/// service's join) and evict in global FIFO insertion order — which is
/// deterministic precisely because inserts are serial and index-ordered.
class CompileCache {
public:
  static constexpr size_t DefaultMaxEntries = 1u << 16;

  explicit CompileCache(std::string CacheDir = "",
                        size_t MaxEntries = DefaultMaxEntries);

  /// Looks \p Key up in memory, then (on miss, when a directory is
  /// configured) on disk. Returns null on miss or on any load failure.
  /// Does not touch hit/miss counters — the caller decides the outcome
  /// after attempting replay (a hit that fails to replay is a miss).
  std::shared_ptr<const CompileCacheEntry> probe(const CompileCacheKey &Key);

  /// Inserts a freshly compiled entry (first insert wins; a duplicate key
  /// is dropped so intra-batch duplicates converge on the index-earliest
  /// task's entry). Writes the on-disk file when a directory is
  /// configured. Must be called serially.
  void insert(const CompileCacheKey &Key, CompileCacheEntry E);

  /// Entries currently held in memory.
  size_t size() const;

  const std::string &dir() const { return CacheDir; }
  size_t maxEntries() const { return MaxEntries; }

  /// The on-disk path for \p Key ("" when no directory is configured).
  std::string entryPath(const CompileCacheKey &Key) const;

  /// Bump the schedule-independent probe-outcome counters (cache.hit /
  /// cache.miss) — routed through the calling thread's CounterShard like
  /// every in-task counter, so they publish at the index-ordered join.
  static void countHit();
  static void countMiss();

private:
  static constexpr unsigned NumShards = 16;

  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<std::string, std::shared_ptr<const CompileCacheEntry>>
        Map;
  };

  Shard &shardFor(const CompileCacheKey &Key) {
    return Shards[Key.Lo % NumShards];
  }

  std::string CacheDir;
  size_t MaxEntries;
  std::array<Shard, NumShards> Shards;
  /// Global FIFO of inserted keys (hex), touched only by the serial
  /// insert path; evictions pop from the front.
  std::deque<std::string> InsertionOrder;
  size_t Size = 0;
  mutable std::mutex SizeMu;
};

} // namespace dbds

#endif // DBDS_WORKLOADS_COMPILECACHE_H
