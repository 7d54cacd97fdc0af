//===- tooling/DriverOptions.h - Shared driver option surface ---*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One declarative flag table for every command-line driver in the tree
/// (the figure benches, bench_headline, fuzzdiff, irlint). Each driver
/// enables the subset of shared flags it supports and keeps parsing only
/// its own specific options; the table owns the spelling, the value
/// syntax, the help text, and the mapping onto DriverOptions fields, so a
/// knob added here appears in every driver's usage and --help for free.
///
/// Typical use:
///
///   DriverOptions D;
///   D.Count = 50; // driver-specific default
///   DriverOptionsParser P(D, {DriverFlag::Jobs, DriverFlag::SimAudit});
///   for (int I = 1; I < argc; ++I)
///     switch (P.parse(argv[I])) {
///     case ParseStatus::Handled: break;
///     case ParseStatus::Help:    /* print usage()+helpText(), exit 0 */
///     case ParseStatus::Error:   /* print error(), exit 2 */
///     case ParseStatus::Unrecognized: /* driver-specific flags, files */
///     }
///   RunnerOptions Opts = D.toRunnerOptions();
///   if (reportInvalidRunnerOptions(Opts, argv[0])) return 2;
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_TOOLING_DRIVEROPTIONS_H
#define DBDS_TOOLING_DRIVEROPTIONS_H

#include "workloads/Runner.h"

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace dbds {

/// Identifiers for the shared flags. A driver passes the subset it
/// supports to DriverOptionsParser; everything else stays Unrecognized so
/// unsupported knobs fail loudly instead of being silently accepted.
enum class DriverFlag : unsigned {
  Jobs,            ///< --jobs=N
  Metrics,         ///< --metrics
  Counters,        ///< --counters
  Trace,           ///< --trace=FILE
  Remarks,         ///< --remarks=FILE
  Flamegraph,      ///< --flamegraph=FILE
  JsonOut,         ///< --json-out[=FILE]
  SimAudit,        ///< --simaudit
  CompileCache,    ///< --compile-cache[=DIR]
  CacheDir,        ///< --cache-dir=DIR
  Seed,            ///< --seed=N
  Count,           ///< --count=N
  Functions,       ///< --functions=N
  Segments,        ///< --segments=N
  Quiet,           ///< --quiet
  FailFast,        ///< --fail-fast
};

/// The values the shared flags parse into. Defaults match the historical
/// per-driver defaults; drivers with different presets (e.g. irlint's
/// corpus --count=3) overwrite fields before parsing.
struct DriverOptions {
  unsigned Jobs = 1;          ///< 0 = one worker per hardware thread.
  bool Metrics = false;        ///< Histogram metrics registry on.
  bool DumpCounters = false;   ///< Dump the counter registry after the run.
  std::string TracePath;       ///< "" = tracing off.
  std::string RemarksPath;     ///< "" = no decision-log JSONL.
  std::string FlamegraphPath;  ///< "" = no folded profile.
  std::string JsonOutPath;     ///< "" = no bench report.
  /// Path a bare --json-out (no =FILE) selects; drivers set it to their
  /// conventional report name before parsing.
  std::string JsonOutDefault = "bench.json";
  bool SimAudit = false;       ///< Audit DBDS decisions post-hoc.
  bool UseCompileCache = false; ///< Content-addressed compile cache.
  std::string CacheDir;        ///< "" = in-memory cache only.
  uint64_t Seed = 1;           ///< First generator seed (corpus drivers).
  unsigned Count = 1;          ///< Generated seeds (corpus drivers).
  unsigned Functions = 4;      ///< Functions per generated program.
  unsigned Segments = 4;       ///< Segments per generated function.
  bool Quiet = false;          ///< Suppress per-item output.
  bool FailFast = false;       ///< Abort on first failure.

  /// The RunnerOptions these flags describe. Callers wire up the pointer
  /// members (Cache, Injector, Decisions, ...) afterwards, then gate on
  /// RunnerOptions::validate() — preferably via reportInvalidRunnerOptions.
  RunnerOptions toRunnerOptions() const;
};

/// Outcome of feeding one argv element to the parser.
enum class ParseStatus {
  Handled,      ///< A shared flag; DriverOptions was updated.
  Unrecognized, ///< Not a shared flag — the driver's turn to match it.
  Error,        ///< A shared flag used incorrectly; see error().
  Help,         ///< --help: print usage()+helpText() and exit 0.
};

/// Parses the enabled subset of the shared flag table into a
/// DriverOptions. Also generates the usage fragment and --help text for
/// exactly that subset, so a driver's documentation cannot drift from
/// what it parses.
class DriverOptionsParser {
public:
  DriverOptionsParser(DriverOptions &Opts,
                      std::initializer_list<DriverFlag> Enabled);

  /// Matches \p Arg against the enabled shared flags ("--help" is always
  /// recognized). Exactly one of the four statuses results.
  ParseStatus parse(const char *Arg);

  /// "[--jobs=N] [--metrics] ..." for the enabled flags, in table order —
  /// the shared portion of a driver's one-line usage string.
  std::string usage() const;

  /// One indented "  --flag=VALUE  description" line per enabled flag.
  std::string helpText() const;

  /// The message for the last ParseStatus::Error.
  const std::string &error() const { return Err; }

private:
  DriverOptions &Opts;
  std::vector<DriverFlag> Enabled;
  std::string Err;
};

/// Prints every RunnerOptions::validate() diagnostic of \p Opts to stderr
/// as "prog: --flag: message". Returns true when any were printed (i.e.
/// the driver should exit with a usage error).
bool reportInvalidRunnerOptions(const RunnerOptions &Opts, const char *Prog);

} // namespace dbds

#endif // DBDS_TOOLING_DRIVEROPTIONS_H
