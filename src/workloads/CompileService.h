//===- workloads/CompileService.h - Parallel compile service ----*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel compile service: shards a generated module's functions
/// across a work-stealing thread pool (support/ThreadPool.h) and runs the
/// full per-function pipeline — interpreter-tier profiling, the standard
/// PhaseManager pipeline with budgets and transactional rollback, DBDS
/// under the requested configuration, and the evaluation runs — one
/// function per task, the way the paper's host JIT compiles many units
/// concurrently.
///
/// The determinism contract (DESIGN.md §9): a run at --jobs=N is
/// observably identical to --jobs=1 —
///
///  - the optimized IR of every function is bitwise identical (each task
///    owns its function; nothing else touches it);
///  - interpreter results, dynamic cycles, code size, duplication and
///    rollback counts are identical (merged per function in index order);
///  - telemetry counter totals are identical (per-worker CounterShard
///    buffers, flushed at task end; addition commutes);
///  - decision logs, diagnostics, and harness log lines are byte-identical
///    (buffered per task, merged in function index order at join);
///  - fault-injection streams derive from (seed, function index), never
///    from scheduling order.
///
/// Wall-clock timing (compile-time measurements, budget expiry) is the one
/// thing that is *not* deterministic — it never was, serially either.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_WORKLOADS_COMPILESERVICE_H
#define DBDS_WORKLOADS_COMPILESERVICE_H

#include "support/ThreadPool.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Runner.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace dbds {

/// Everything one function's compile+measure task produced, buffered so
/// the join can assemble results in function index order no matter which
/// worker finished when.
struct FunctionCompileOutcome {
  double CompileTimeMs = 0.0;
  uint64_t CodeSize = 0;
  unsigned Duplications = 0;
  unsigned Rollbacks = 0;
  unsigned RunFailures = 0;
  DegradationLevel Degradation = DegradationLevel::None;
  uint64_t DynamicCycles = 0;
  /// Hash of this function's evaluation results, seeded from zero; the
  /// module-level hash folds these in index order (resultHashCombine).
  uint64_t ResultHash = 0;
  /// Harness log lines (non-terminating runs), emitted in index order.
  std::vector<std::string> LogLines;
  /// SimAudit verdict counts (Ran only when the service ran with
  /// RunnerOptions::SimAudit on a DBDS configuration).
  SimAuditCounts Audit;
  /// Always false; benchmark/dbds_bench.cpp still reads it. Delete it
  /// with the next change to the benchmark.
  bool Exhausted = false;
};

/// Mixes one value into a result hash (the runner's hashing primitive,
/// exposed for the merge step and the tests).
uint64_t resultHashCombine(uint64_t Hash, uint64_t Value);

/// Owns the worker pool behind --jobs. Jobs == 1 runs every task inline on
/// the calling thread through the exact same code path (so serial runs and
/// parallel runs differ only in scheduling); Jobs == 0 resolves to the
/// hardware thread count. The service is reusable across batches — one
/// service per suite keeps the workers parked between benchmarks instead
/// of respawning them.
class CompileService {
public:
  explicit CompileService(unsigned Jobs);
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// The resolved worker count (>= 1).
  unsigned jobs() const { return Jobs; }

  /// What \p Requested resolves to: 0 -> hardware threads, otherwise
  /// itself (minimum 1).
  static unsigned resolveJobs(unsigned Requested);

  /// Runs Task(Index, Worker) once per index: on the pool when jobs() > 1,
  /// inline (Worker == 0) otherwise. Blocks until every task returned.
  void forEachIndex(size_t NumTasks,
                    std::function<void(size_t Index, unsigned Worker)> Task);

private:
  unsigned Jobs;
  std::unique_ptr<ThreadPool> Pool; ///< Null when Jobs == 1.
};

/// What one batch produced.
struct CompileBatch {
  /// Per-function outcomes, in function index order.
  std::vector<FunctionCompileOutcome> Outcomes;
};

/// Compiles and measures every function of \p W under \p Config, sharded
/// across \p Service's workers, and returns the per-function outcomes in
/// function index order. Each task: profiles on the training inputs,
/// runs PhaseManager::standardPipeline under Opts' budget/verify/fail-fast
/// settings, runs DBDS for the non-baseline configurations, then measures
/// dynamic cycles on the evaluation inputs (with the instruction-cache
/// pressure model of DESIGN.md §2 enabled, as the serial runner always
/// did). Shared sinks in \p Opts (Decisions, Diags, Injector) are never
/// touched from worker threads: tasks write task-local buffers which are
/// merged into the sinks in index order after the join. \p BenchName only
/// labels diagnostics and log lines.
///
/// Sharding is sound because a generated function is a closed unit: tasks
/// mutate only their own function and read the module's class table, which
/// is immutable during compilation (direct Invoke calls between functions
/// would break this; the generator emits only opaque calls).
///
CompileBatch compileFunctionsParallel(CompileService &Service,
                                      GeneratedWorkload &W, RunConfig Config,
                                      const RunnerOptions &Opts,
                                      const std::string &BenchName);

} // namespace dbds

#endif // DBDS_WORKLOADS_COMPILESERVICE_H
