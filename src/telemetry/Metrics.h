//===- telemetry/Metrics.h - Deterministic histogram metrics ----*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Distribution metrics for the compilation pipeline: a registry of named
/// fixed-log2-bucket histograms, recorded from the same sites the trace
/// spans and counters instrument but capturing *distributions* — tail
/// latencies, per-function IR growth, memory pressure — instead of flat
/// totals. The paper's evaluation is a distributional trade-off story
/// (compile time vs peak performance vs code size, Fig. 5-8); aggregates
/// hide exactly the tails it reports.
///
/// Cost model (same budget as tracing, DESIGN.md §8): when metrics are
/// detached every record site reduces to one relaxed atomic load. When
/// enabled, recording buffers into the calling thread's MetricsShard when
/// one is installed (the parallel compile service installs one per task)
/// and into the registry's per-histogram locked state otherwise.
///
/// Determinism contract (DESIGN.md §12, extending §9): histograms are
/// classified Deterministic or Timing. Deterministic histograms record
/// only schedule-independent values (instruction counts, IR bytes, growth
/// percentages); their merged state — and therefore their JSON rendering —
/// is byte-identical between --jobs=1 and --jobs=N because the service
/// merges task shards in function index order and histogram merge is a
/// per-bucket sum. Timing histograms (latency, RSS) record wall-clock
/// values and are excluded from determinism comparisons, the same carve-
/// out §9 makes for compile-time measurement.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_TELEMETRY_METRICS_H
#define DBDS_TELEMETRY_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dbds {

/// Display/semantics unit of a histogram's values.
enum class MetricUnit { Nanoseconds, Bytes, Count, Percent };

/// Determinism class: Deterministic histograms record only schedule-
/// independent values and must be byte-identical across --jobs settings;
/// Timing histograms record wall-clock or allocator-dependent values.
enum class MetricClass { Deterministic, Timing };

const char *metricUnitName(MetricUnit U);
const char *metricClassName(MetricClass C);

/// A fixed-bucket log2 histogram over uint64_t values. Bucket 0 holds the
/// value 0; bucket b (1..64) holds values in [2^(b-1), 2^b - 1]. Plain
/// value type: recording and merging are not synchronized here — the
/// registry and shards layer locking/buffering on top.
class Histogram {
public:
  /// 65 buckets: {0} plus one per bit width 1..64.
  static constexpr unsigned NumBuckets = 65;

  static unsigned bucketIndex(uint64_t V);
  /// Smallest / largest value bucket \p I holds.
  static uint64_t bucketLo(unsigned I);
  static uint64_t bucketHi(unsigned I);

  void record(uint64_t V) {
    ++Buckets[bucketIndex(V)];
    ++Count_;
    Sum_ += V;
    if (V < Min_)
      Min_ = V;
    if (V > Max_)
      Max_ = V;
  }

  /// Per-bucket sum; commutes, so merge order cannot change the result.
  void merge(const Histogram &O);

  uint64_t count() const { return Count_; }
  uint64_t sum() const { return Sum_; }
  /// Smallest/largest recorded value (0 when empty).
  uint64_t min() const { return Count_ ? Min_ : 0; }
  uint64_t max() const { return Max_; }
  double mean() const {
    return Count_ ? static_cast<double>(Sum_) / static_cast<double>(Count_)
                  : 0.0;
  }
  const std::array<uint64_t, NumBuckets> &buckets() const { return Buckets; }

  /// Estimated value at quantile \p Q in [0, 100]: finds the bucket the
  /// rank falls in and interpolates linearly inside its [lo, hi] range,
  /// clamped to the recorded min/max. Exact for single-valued histograms;
  /// within one bucket width otherwise. Deterministic: pure integer walk
  /// plus one double interpolation over integer inputs.
  double percentile(double Q) const;

private:
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Count_ = 0;
  uint64_t Sum_ = 0;
  uint64_t Min_ = UINT64_MAX;
  uint64_t Max_ = 0;
};

class MetricsShard;

/// One registered histogram. Static-storage instances come from
/// DBDS_HISTOGRAM; dynamically named ones (per-phase latency) from
/// MetricsRegistry::getOrCreate. Either way the object lives for the
/// process.
class TelemetryHistogram {
public:
  TelemetryHistogram(const char *Component, const char *Name, MetricUnit Unit,
                     MetricClass Class);

  TelemetryHistogram(const TelemetryHistogram &) = delete;
  TelemetryHistogram &operator=(const TelemetryHistogram &) = delete;

  /// Records \p V: no-op (one relaxed atomic load) when metrics are
  /// detached; otherwise buffers into the calling thread's MetricsShard
  /// when one is installed, or merges into the locked global state.
  void record(uint64_t V);

  /// The published global state (shard-buffered samples are invisible
  /// until their shard publishes).
  Histogram read() const;

  void reset();

  const std::string &component() const { return Component; }
  const std::string &name() const { return Name; }
  MetricUnit unit() const { return Unit; }
  MetricClass metricClass() const { return Class; }

  /// "component.name", the stable key used in dumps and reports.
  std::string qualifiedName() const { return Component + "." + Name; }

private:
  friend class MetricsShard;
  friend class MetricsRegistry;

  /// Non-self-registering constructor for MetricsRegistry::getOrCreate:
  /// the registry inserts the instance itself while holding its lock, so
  /// lookup, construction, and registration are one atomic step.
  struct UnregisteredTag {};
  TelemetryHistogram(UnregisteredTag, const char *Component, const char *Name,
                     MetricUnit Unit, MetricClass Class)
      : Component(Component), Name(Name), Unit(Unit), Class(Class) {}

  void mergeGlobal(const Histogram &H);

  std::string Component;
  std::string Name;
  MetricUnit Unit;
  MetricClass Class;
  mutable std::mutex Mu;
  Histogram Global;
};

/// A point-in-time reading of one histogram.
struct HistogramSample {
  std::string Name; ///< Qualified "component.name".
  MetricUnit Unit = MetricUnit::Count;
  MetricClass Class = MetricClass::Deterministic;
  Histogram H;
};

/// Process-wide registry of all histograms, plus the global metrics
/// enable flag every record site gates on.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  /// The one relaxed atomic load every instrumented hot path pays when
  /// metrics are detached.
  static bool enabled() {
    return Enabled.load(std::memory_order_relaxed);
  }
  static void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// The histogram named "component.name", creating (and permanently
  /// registering) it on first use — the dynamic-name analogue of
  /// DBDS_HISTOGRAM for sites whose names are data (per-phase latency).
  /// Unit/class are fixed by the first creation.
  TelemetryHistogram &getOrCreate(const std::string &Component,
                                  const std::string &Name, MetricUnit Unit,
                                  MetricClass Class);

  /// All histograms' published state, sorted by qualified name.
  /// \p DeterministicOnly restricts to MetricClass::Deterministic (the
  /// determinism-contract comparison set); \p SkipEmpty drops histograms
  /// that never recorded.
  std::vector<HistogramSample> snapshot(bool DeterministicOnly = false,
                                        bool SkipEmpty = true) const;

  /// Zeroes every histogram (drivers reset before a measured run).
  void resetAll();

  /// JSON object {"component.name": {unit, class, count, sum, min, max,
  /// mean, p50, p90, p99, buckets:[[index,count],...]}, ...} — stable key
  /// order (samples are name-sorted), stable number formatting, so equal
  /// snapshots render byte-identically.
  static std::string renderJson(const std::vector<HistogramSample> &Samples);

  /// Human percentile table: one row per histogram with count, p50/p90/p99,
  /// max in the histogram's unit.
  static std::string renderTable(const std::vector<HistogramSample> &Samples);

private:
  friend class TelemetryHistogram;
  void add(TelemetryHistogram *H);

  static std::atomic<bool> Enabled;

  mutable std::mutex Mu;
  std::vector<TelemetryHistogram *> Histograms;
  /// Owners of getOrCreate histograms (registered pointers above).
  std::vector<std::unique_ptr<TelemetryHistogram>> Owned;
};

/// Per-task metrics shard, mirroring CounterShard: while installed (RAII,
/// per thread), this thread's histogram records buffer privately. The
/// parallel compile service installs one per task and publishes the taken
/// buffers at the serial join in function index order — merge commutes,
/// but index-ordered publication keeps the metrics pipeline under the
/// same contract as every other telemetry stream (DESIGN.md §9).
class MetricsShard {
public:
  using Buffer = std::vector<std::pair<TelemetryHistogram *, Histogram>>;

  MetricsShard();
  ~MetricsShard(); ///< Publishes any un-taken buffers, restores previous.

  MetricsShard(const MetricsShard &) = delete;
  MetricsShard &operator=(const MetricsShard &) = delete;

  /// The shard installed on the calling thread (null when records go
  /// straight to the registry).
  static MetricsShard *active();

  /// Buffers \p V for \p H (called by TelemetryHistogram::record).
  void record(TelemetryHistogram *H, uint64_t V);

  /// Moves the buffered state out (the compile service's join publishes
  /// it later, in task index order, via publish()).
  Buffer take();

  /// Merges \p B into the histograms' global state.
  static void publish(const Buffer &B);

private:
  MetricsShard *Previous;
  /// Linear map, like CounterShard: a task touches few histograms.
  Buffer Buffered;
};

/// Current peak resident set size of the process in bytes (getrusage
/// ru_maxrss), 0 where unsupported. Monotone over the process lifetime;
/// sampled at task boundaries for the memory-accounting histogram.
uint64_t currentPeakRssBytes();

/// Declares (and registers) a static histogram named \p NAME under
/// \p COMPONENT. Record with NAME.record(v).
#define DBDS_HISTOGRAM(COMPONENT, NAME, UNIT, CLASS)                           \
  static ::dbds::TelemetryHistogram NAME(#COMPONENT, #NAME,                    \
                                         ::dbds::MetricUnit::UNIT,             \
                                         ::dbds::MetricClass::CLASS)

} // namespace dbds

#endif // DBDS_TELEMETRY_METRICS_H
