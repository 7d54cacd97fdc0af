//===- telemetry/Counters.h - Named-counter registry ------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LLVM-STATISTIC-style registry of named counters. A counter is a
/// file-scope static declared with DBDS_COUNTER(component, name); it
/// registers itself on first use and is incremented with ++ from anywhere
/// (relaxed atomics, so hot paths pay one uncontended add). The registry
/// can be snapshotted at any time; drivers report either the absolute
/// values (--counters) or the delta across a measured region
/// (ConfigMeasurement's per-configuration counters).
///
///   DBDS_COUNTER(simulator, constant_folds);
///   ...
///   ++constant_folds;
///
/// Parallel compilation (workloads/CompileService.h) adds per-worker
/// sharding on top: while a CounterShard is installed on a thread, that
/// thread's increments accumulate in the shard's private buffer instead of
/// the global atomics, and are published in one batch when the shard
/// flushes (at task join). Totals are identical either way — counter
/// addition commutes — but sharding keeps the hot path contention-free
/// and gives the phase auditor a view of *this thread's* activity only,
/// which is what makes audit-mode counter attribution correct when
/// several functions compile concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_TELEMETRY_COUNTERS_H
#define DBDS_TELEMETRY_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dbds {

/// One registered counter. Construction registers it process-wide;
/// counters are expected to be static-storage objects that live forever.
class TelemetryCounter {
public:
  TelemetryCounter(const char *Component, const char *Name);

  TelemetryCounter(const TelemetryCounter &) = delete;
  TelemetryCounter &operator=(const TelemetryCounter &) = delete;

  TelemetryCounter &operator++() {
    bump(1);
    return *this;
  }

  TelemetryCounter &operator+=(uint64_t N) {
    bump(N);
    return *this;
  }

  /// Adds \p N: into this thread's active CounterShard when one is
  /// installed, directly into the global atomic otherwise.
  void bump(uint64_t N);

  /// Adds \p N directly to the global value, bypassing any shard (the
  /// shard flush path).
  void addGlobal(uint64_t N) {
    Value.fetch_add(N, std::memory_order_relaxed);
  }

  /// The *published* value: shard-buffered increments are invisible here
  /// until their shard flushes.
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

  const char *component() const { return Component; }
  const char *name() const { return Name; }

  /// "component.name", the stable key used in dumps and reports.
  std::string qualifiedName() const {
    return std::string(Component) + "." + Name;
  }

private:
  const char *Component;
  const char *Name;
  std::atomic<uint64_t> Value{0};
};

/// A point-in-time reading of one counter.
struct CounterSample {
  std::string Name; ///< Qualified "component.name".
  uint64_t Value = 0;
};

/// Process-wide registry of all counters.
class CounterRegistry {
public:
  static CounterRegistry &instance();

  /// All counters' current values, sorted by qualified name. \p SkipZero
  /// drops counters that never fired (the common dump mode).
  std::vector<CounterSample> snapshot(bool SkipZero = false) const;

  /// Zeroes every counter (tests and per-run measurement baselines).
  void resetAll();

  /// Per-counter difference \p After - \p Before, dropping zero deltas.
  /// Counters only grow, so both snapshots must come from this process in
  /// order.
  static std::vector<CounterSample>
  delta(const std::vector<CounterSample> &Before,
        const std::vector<CounterSample> &After);

  /// "component.name = value" lines, one per counter.
  static std::string renderText(const std::vector<CounterSample> &Samples);

  /// A JSON object {"component.name": value, ...}.
  static std::string renderJson(const std::vector<CounterSample> &Samples);

  /// Publishes a taken shard buffer (CounterShard::take) into the global
  /// counters — the compile service's one-batch-per-task-join update.
  static void
  publishBatch(const std::vector<std::pair<TelemetryCounter *, uint64_t>> &B);

private:
  friend class TelemetryCounter;
  void add(TelemetryCounter *C);

  mutable std::mutex Mu;
  std::vector<TelemetryCounter *> Counters;
};

/// Per-worker counter shard: while installed (RAII, per thread), this
/// thread's counter increments buffer privately and publish to the global
/// registry in one batch when the shard flushes (destruction, or an
/// explicit flush()). Shards nest; the previously installed shard is
/// restored on destruction. The parallel compile service installs one per
/// task, so (a) workers never contend on the global atomics mid-compile
/// and (b) a thread can ask "what did *I* increment?" — the snapshot the
/// PhaseManager auditor uses to attribute counter activity to a phase
/// without picking up concurrent workers' noise.
class CounterShard {
public:
  CounterShard();
  ~CounterShard(); ///< Flushes, then restores the previous shard.

  CounterShard(const CounterShard &) = delete;
  CounterShard &operator=(const CounterShard &) = delete;

  /// The shard installed on the calling thread (null when increments go
  /// straight to the globals).
  static CounterShard *active();

  /// Buffers \p N for \p C (called by TelemetryCounter::bump).
  void bump(TelemetryCounter *C, uint64_t N);

  /// This shard's buffered values, sorted by qualified name — the
  /// thread-local analogue of CounterRegistry::snapshot().
  std::vector<CounterSample> snapshot() const;

  /// Publishes all buffered values into the global counters and clears
  /// the buffer.
  void flush();

  /// Moves the buffered values out without publishing them. The parallel
  /// compile service takes each task's buffer at task end and publishes
  /// all of them in one batch per task at the serial join (task index
  /// order) via CounterRegistry::publishBatch — workers then never touch
  /// the shared registry cachelines at all, not even once per counter at
  /// flush (ROADMAP: the registry atomics were the hottest shared
  /// cacheline after the work deque at --jobs=8).
  std::vector<std::pair<TelemetryCounter *, uint64_t>> take();

private:
  CounterShard *Previous;
  /// Linear map: a compile task touches a handful of distinct counters,
  /// so a vector scan beats hashing.
  std::vector<std::pair<TelemetryCounter *, uint64_t>> Buffered;
};

/// Declares (and registers) a static counter named \p NAME under
/// \p COMPONENT. Usable at file or function scope; increment with
/// ++NAME or NAME += n.
#define DBDS_COUNTER(COMPONENT, NAME)                                         \
  static ::dbds::TelemetryCounter NAME(#COMPONENT, #NAME)

} // namespace dbds

#endif // DBDS_TELEMETRY_COUNTERS_H
