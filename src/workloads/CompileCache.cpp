//===- workloads/CompileCache.cpp - Content-addressed compile cache --------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/CompileCache.h"

#include "ir/Function.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "telemetry/BenchCompare.h" // readFileToString

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>

using namespace dbds;

// The cache.* counters are the one documented warm-vs-cold divergence: a
// cold region counts misses, a warm one hits, and comparisons of the
// deterministic sections strip the component (DESIGN.md §13). Everything
// here that is schedule-independent (hit/miss via the task shard, stores
// and evictions in the serial insert path) totals identically across
// --jobs settings.
DBDS_COUNTER(cache, hit);
DBDS_COUNTER(cache, miss);
DBDS_COUNTER(cache, stored);
DBDS_COUNTER(cache, stored_bytes);
DBDS_COUNTER(cache, evictions);
DBDS_COUNTER(cache, disk_loads);
DBDS_COUNTER(cache, disk_load_failures);
DBDS_COUNTER(cache, disk_write_failures);

void CompileCache::countHit() { ++hit; }
void CompileCache::countMiss() { ++miss; }

//===----------------------------------------------------------------------===//
// Key computation
//===----------------------------------------------------------------------===//

std::string dbds::printCacheableUnit(const Module *M, const Function *F) {
  std::string Out;
  for (unsigned Idx = 0, E = M->getNumClasses(); Idx != E; ++Idx) {
    const ClassInfo &CI = M->getClass(Idx);
    Out += "class " + CI.Name + " " + std::to_string(CI.NumFields) + "\n";
  }
  if (M->getNumClasses() != 0)
    Out += "\n";
  Out += printFunction(F);
  Out += "\n";
  return Out;
}

CompileCacheKey dbds::computeCompileCacheKey(
    const std::string &PristineIR,
    const std::vector<std::vector<int64_t>> &TrainInputs,
    const std::vector<std::vector<int64_t>> &EvalInputs,
    const CompileCacheFingerprint &FP) {
  StableHasher H;
  H.str(PristineIR);
  for (const auto *Inputs : {&TrainInputs, &EvalInputs}) {
    H.u64(Inputs->size());
    for (const std::vector<int64_t> &Tuple : *Inputs) {
      H.u64(Tuple.size());
      for (int64_t V : Tuple)
        H.i64(V);
    }
  }
  H.str(FP.Tool);
  H.u32(FP.Config);
  H.boolean(FP.Verify);
  H.boolean(FP.FailFast);
  H.f64(FP.CompileBudgetMs);
  H.u32(FP.PollInterval);
  H.boolean(FP.SimAudit);
  H.boolean(FP.WantDiags);
  H.boolean(FP.WantDecisions);
  H.boolean(FP.MetricsEnabled);
  H.u32(FP.ForcedLevel);
  H.u64(FP.DisabledPhases.size());
  for (const std::string &Phase : FP.DisabledPhases)
    H.str(Phase);
  H.boolean(FP.HasInjector);
  if (FP.HasInjector) {
    H.u64(FP.InjectorBaseSeed);
    H.f64(FP.InjectorRate);
    H.u32(FP.InjectorKindMask);
    H.u64(FP.TaskFaultSeed);
  }
  return H.digest();
}

//===----------------------------------------------------------------------===//
// Entry serialization (versioned text, fail-open parsing)
//===----------------------------------------------------------------------===//

namespace {

// v2: decision lines carry the partial_escapes opportunity count.
// v3: strength_reductions counts only opcode-changing rewrites.
constexpr const char *FormatHeader = "dbds-compile-cache v3";

uint64_t bitsOfDouble(double V) {
  uint64_t Bits;
  __builtin_memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

double doubleOfBits(uint64_t Bits) {
  double V;
  __builtin_memcpy(&V, &Bits, sizeof(V));
  return V;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

/// Sequential reader over the serialized text: lines of space-separated
/// tokens plus explicit length-prefixed raw blocks. Every helper latches
/// Fail instead of throwing; the caller checks once per record.
struct EntryReader {
  const std::string &Text;
  size_t Pos = 0;
  bool Fail = false;

  explicit EntryReader(const std::string &Text) : Text(Text) {}

  bool eol() const { return Pos >= Text.size() || Text[Pos] == '\n'; }

  void endLine() {
    if (Pos >= Text.size() || Text[Pos] != '\n') {
      Fail = true;
      return;
    }
    ++Pos;
  }

  /// Expects the literal word \p W followed by a space or end of line.
  void word(const char *W) {
    size_t Len = strlen(W);
    if (Text.compare(Pos, Len, W) != 0) {
      Fail = true;
      return;
    }
    Pos += Len;
    if (!eol()) {
      if (Text[Pos] != ' ') {
        Fail = true;
        return;
      }
      ++Pos;
    }
  }

  uint64_t number(int Base) {
    if (Fail || Pos >= Text.size()) {
      Fail = true;
      return 0;
    }
    const char *Start = Text.c_str() + Pos;
    char *End = nullptr;
    errno = 0;
    unsigned long long V = strtoull(Start, &End, Base);
    if (End == Start || errno == ERANGE) {
      Fail = true;
      return 0;
    }
    Pos += static_cast<size_t>(End - Start);
    if (!eol()) {
      if (Text[Pos] != ' ') {
        Fail = true;
        return 0;
      }
      ++Pos;
    }
    return V;
  }

  uint64_t u64() { return number(10); }
  uint64_t hexU64() { return number(16); }

  int64_t i64() {
    if (Fail || Pos >= Text.size()) {
      Fail = true;
      return 0;
    }
    const char *Start = Text.c_str() + Pos;
    char *End = nullptr;
    errno = 0;
    long long V = strtoll(Start, &End, 10);
    if (End == Start || errno == ERANGE) {
      Fail = true;
      return 0;
    }
    Pos += static_cast<size_t>(End - Start);
    if (!eol()) {
      if (Text[Pos] != ' ') {
        Fail = true;
        return 0;
      }
      ++Pos;
    }
    return V;
  }

  bool flag() {
    uint64_t V = u64();
    if (V > 1)
      Fail = true;
    return V != 0;
  }

  /// The rest of the current line (identifiers and function names; no
  /// newlines by construction).
  std::string restOfLine() {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos) {
      Fail = true;
      return "";
    }
    std::string Out = Text.substr(Pos, End - Pos);
    Pos = End;
    return Out;
  }

  /// Exactly \p Len raw bytes.
  std::string raw(size_t Len) {
    if (Pos + Len > Text.size()) {
      Fail = true;
      return "";
    }
    std::string Out = Text.substr(Pos, Len);
    Pos += Len;
    return Out;
  }
};

bool parseKeyHex(const std::string &Hex, CompileCacheKey &Out) {
  if (Hex.size() != 32)
    return false;
  uint64_t Halves[2] = {0, 0};
  for (unsigned H = 0; H != 2; ++H)
    for (unsigned I = 0; I != 16; ++I) {
      char C = Hex[H * 16 + I];
      unsigned Digit;
      if (C >= '0' && C <= '9')
        Digit = static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Digit = static_cast<unsigned>(C - 'a') + 10;
      else
        return false;
      Halves[H] = (Halves[H] << 4) | Digit;
    }
  Out.Hi = Halves[0];
  Out.Lo = Halves[1];
  return true;
}

} // namespace

std::string dbds::serializeCacheEntry(const CompileCacheKey &Key,
                                      const CompileCacheEntry &E) {
  std::string Out;
  Out += FormatHeader;
  Out += "\n";
  Out += "key " + Key.hex() + "\n";
  Out += "scalars " + std::to_string(E.CodeSize) + " " +
         std::to_string(E.Duplications) + " " +
         std::to_string(static_cast<unsigned>(E.Degradation)) + " " +
         std::to_string(E.DynamicCycles) + " " + hex64(E.ResultHash) + " " +
         std::to_string(E.FaultSites) + "\n";
  Out += "audit " + std::to_string(E.Audit.Ran ? 1 : 0) + " " +
         std::to_string(E.Audit.Confirmed) + " " +
         std::to_string(E.Audit.Overclaimed) + " " +
         std::to_string(E.Audit.Underclaimed) + " " +
         std::to_string(E.Audit.Skipped) + "\n";

  Out += "counters " + std::to_string(E.Counters.size()) + "\n";
  for (const CounterSample &C : E.Counters)
    Out += "c " + std::to_string(C.Value) + " " + C.Name + "\n";

  Out += "histograms " + std::to_string(E.Histograms.size()) + "\n";
  for (const CompileCacheEntry::HistogramState &HS : E.Histograms) {
    unsigned NonZero = 0;
    for (uint64_t B : HS.H.buckets())
      if (B != 0)
        ++NonZero;
    Out += "h " + std::to_string(static_cast<unsigned>(HS.Unit)) + " " +
           std::to_string(static_cast<unsigned>(HS.Class)) + " " +
           std::to_string(HS.H.count()) + " " + std::to_string(HS.H.sum()) +
           " " + std::to_string(HS.H.min()) + " " +
           std::to_string(HS.H.max()) + " " + std::to_string(NonZero);
    for (unsigned I = 0; I != Histogram::NumBuckets; ++I)
      if (HS.H.buckets()[I] != 0)
        Out += " " + std::to_string(I) + " " +
               std::to_string(HS.H.buckets()[I]);
    Out += " " + HS.Component + " " + HS.Name + "\n";
  }

  Out += "decisions " + std::to_string(E.Decisions.size()) + "\n";
  for (const DuplicationDecision &D : E.Decisions) {
    const OpportunityCounts &O = D.Opportunities;
    Out += "d " + std::to_string(D.Iteration) + " " +
           std::to_string(D.MergeId) + " " + std::to_string(D.PredId) + " " +
           std::to_string(D.SecondMergeId) + " " +
           hex64(bitsOfDouble(D.CyclesSaved)) + " " +
           hex64(bitsOfDouble(D.Probability)) + " " +
           std::to_string(D.SizeCost) + " " + std::to_string(D.CurrentSize) +
           " " + std::to_string(D.InitialSize) + " " +
           std::to_string(O.ConstantFolds) + " " +
           std::to_string(O.StrengthReductions) + " " +
           std::to_string(O.ConditionalEliminations) + " " +
           std::to_string(O.ReadEliminations) + " " +
           std::to_string(O.AllocationSinks) + " " +
           std::to_string(O.PartialEscapes) + " " +
           std::to_string(D.TradeoffEvaluated ? 1 : 0) + " " +
           std::to_string(D.Clauses.PositiveCyclesSaved ? 1 : 0) + " " +
           std::to_string(D.Clauses.BenefitOutweighsCost ? 1 : 0) + " " +
           std::to_string(D.Clauses.UnderMaxUnitSize ? 1 : 0) + " " +
           std::to_string(D.Clauses.WithinGrowthBudget ? 1 : 0) + " " +
           std::to_string(static_cast<unsigned>(D.Verdict)) + " " +
           std::to_string(D.DuplicationsPerformed) + " " +
           std::to_string(static_cast<unsigned>(D.Audit)) + " " +
           D.FunctionName + "\n";
  }

  Out += "ir " + std::to_string(E.OptimizedIR.size()) + "\n";
  Out += E.OptimizedIR;
  Out += "\n";

  // The checksum covers every byte above its own line.
  Out += "checksum " + hex64(stableHash64(Out)) + "\n";
  return Out;
}

bool dbds::parseCacheEntry(const std::string &Text,
                           const CompileCacheKey &Expect,
                           CompileCacheEntry &Out) {
  EntryReader R(Text);

  // Version first: a future format revision must read as a miss, not as a
  // checksum error in a format we cannot actually parse.
  R.word(FormatHeader);
  R.endLine();
  if (R.Fail)
    return false;

  // Locate and verify the trailing checksum line before trusting any
  // field: Text must end "checksum <16 hex>\n".
  if (Text.empty() || Text.back() != '\n')
    return false;
  size_t LineStart = Text.rfind('\n', Text.size() - 2);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  constexpr const char *ChecksumTag = "checksum ";
  if (Text.compare(LineStart, strlen(ChecksumTag), ChecksumTag) != 0)
    return false;
  {
    EntryReader CR(Text);
    CR.Pos = LineStart;
    CR.word("checksum");
    uint64_t Stored = CR.hexU64();
    CR.endLine();
    if (CR.Fail || CR.Pos != Text.size())
      return false;
    if (Stored != stableHash64(Text.data(), LineStart))
      return false;
  }

  R.word("key");
  CompileCacheKey Key;
  if (!parseKeyHex(R.restOfLine(), Key))
    return false;
  R.endLine();
  if (R.Fail || Key != Expect)
    return false;

  R.word("scalars");
  Out.CodeSize = R.u64();
  Out.Duplications = static_cast<unsigned>(R.u64());
  uint64_t Degradation = R.u64();
  Out.DynamicCycles = R.u64();
  Out.ResultHash = R.hexU64();
  Out.FaultSites = static_cast<unsigned>(R.u64());
  R.endLine();
  if (R.Fail || Degradation > static_cast<uint64_t>(DegradationLevel::NoFixpoint))
    return false;
  Out.Degradation = static_cast<DegradationLevel>(Degradation);

  R.word("audit");
  Out.Audit.Ran = R.flag();
  Out.Audit.Confirmed = R.u64();
  Out.Audit.Overclaimed = R.u64();
  Out.Audit.Underclaimed = R.u64();
  Out.Audit.Skipped = R.u64();
  R.endLine();
  if (R.Fail)
    return false;

  R.word("counters");
  uint64_t NumCounters = R.u64();
  R.endLine();
  if (R.Fail || NumCounters > 4096)
    return false;
  Out.Counters.clear();
  Out.Counters.reserve(NumCounters);
  for (uint64_t I = 0; I != NumCounters; ++I) {
    R.word("c");
    CounterSample S;
    S.Value = R.u64();
    S.Name = R.restOfLine();
    R.endLine();
    if (R.Fail || S.Name.empty())
      return false;
    Out.Counters.push_back(std::move(S));
  }

  R.word("histograms");
  uint64_t NumHists = R.u64();
  R.endLine();
  if (R.Fail || NumHists > 4096)
    return false;
  Out.Histograms.clear();
  Out.Histograms.reserve(NumHists);
  for (uint64_t I = 0; I != NumHists; ++I) {
    R.word("h");
    uint64_t Unit = R.u64();
    uint64_t Class = R.u64();
    uint64_t Count = R.u64();
    uint64_t Sum = R.u64();
    uint64_t Min = R.u64();
    uint64_t Max = R.u64();
    uint64_t NonZero = R.u64();
    if (R.Fail || Unit > static_cast<uint64_t>(MetricUnit::Percent) ||
        Class > static_cast<uint64_t>(MetricClass::Timing) ||
        NonZero > Histogram::NumBuckets)
      return false;
    std::array<uint64_t, Histogram::NumBuckets> Buckets{};
    for (uint64_t P = 0; P != NonZero; ++P) {
      uint64_t Idx = R.u64();
      uint64_t Val = R.u64();
      if (R.Fail || Idx >= Histogram::NumBuckets)
        return false;
      Buckets[Idx] = Val;
    }
    CompileCacheEntry::HistogramState HS;
    HS.Unit = static_cast<MetricUnit>(Unit);
    HS.Class = static_cast<MetricClass>(Class);
    HS.H = Histogram::fromState(Buckets, Count, Sum, Min, Max);
    // Component and name are the line's last two tokens.
    std::string Names = R.restOfLine();
    R.endLine();
    size_t Space = Names.find(' ');
    if (R.Fail || Space == std::string::npos || Space == 0 ||
        Space + 1 == Names.size() ||
        Names.find(' ', Space + 1) != std::string::npos)
      return false;
    HS.Component = Names.substr(0, Space);
    HS.Name = Names.substr(Space + 1);
    Out.Histograms.push_back(std::move(HS));
  }

  R.word("decisions");
  uint64_t NumDecisions = R.u64();
  R.endLine();
  if (R.Fail || NumDecisions > (1u << 20))
    return false;
  Out.Decisions.clear();
  Out.Decisions.reserve(NumDecisions);
  for (uint64_t I = 0; I != NumDecisions; ++I) {
    R.word("d");
    DuplicationDecision D;
    D.Iteration = static_cast<unsigned>(R.u64());
    D.MergeId = static_cast<unsigned>(R.u64());
    D.PredId = static_cast<unsigned>(R.u64());
    D.SecondMergeId = static_cast<unsigned>(R.u64());
    D.CyclesSaved = doubleOfBits(R.hexU64());
    D.Probability = doubleOfBits(R.hexU64());
    D.SizeCost = R.i64();
    D.CurrentSize = R.u64();
    D.InitialSize = R.u64();
    D.Opportunities.ConstantFolds = static_cast<unsigned>(R.u64());
    D.Opportunities.StrengthReductions = static_cast<unsigned>(R.u64());
    D.Opportunities.ConditionalEliminations = static_cast<unsigned>(R.u64());
    D.Opportunities.ReadEliminations = static_cast<unsigned>(R.u64());
    D.Opportunities.AllocationSinks = static_cast<unsigned>(R.u64());
    D.Opportunities.PartialEscapes = static_cast<unsigned>(R.u64());
    D.TradeoffEvaluated = R.flag();
    D.Clauses.PositiveCyclesSaved = R.flag();
    D.Clauses.BenefitOutweighsCost = R.flag();
    D.Clauses.UnderMaxUnitSize = R.flag();
    D.Clauses.WithinGrowthBudget = R.flag();
    uint64_t Verdict = R.u64();
    D.DuplicationsPerformed = static_cast<unsigned>(R.u64());
    uint64_t Audit = R.u64();
    D.FunctionName = R.restOfLine();
    R.endLine();
    if (R.Fail ||
        Verdict > static_cast<uint64_t>(DecisionVerdict::RolledBack) ||
        Audit > static_cast<uint64_t>(AuditVerdict::Skipped) ||
        D.FunctionName.empty())
      return false;
    D.Verdict = static_cast<DecisionVerdict>(Verdict);
    D.Audit = static_cast<AuditVerdict>(Audit);
    Out.Decisions.push_back(std::move(D));
  }

  R.word("ir");
  uint64_t IRLen = R.u64();
  R.endLine();
  if (R.Fail || IRLen > (1u << 28))
    return false;
  Out.OptimizedIR = R.raw(IRLen);
  R.endLine();
  if (R.Fail || R.Pos != LineStart)
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Replay resolution
//===----------------------------------------------------------------------===//

bool dbds::prepareReplay(const CompileCacheEntry &E, PreparedReplay &R) {
  ParseResult Parsed = parseModule(E.OptimizedIR);
  if (!Parsed)
    return false;
  auto Fns = Parsed.Mod->functions();
  if (Fns.size() != 1)
    return false;
  R.Fn = Fns[0];
  R.Mod = std::move(Parsed.Mod);

  R.Counters.clear();
  R.Counters.reserve(E.Counters.size());
  for (const CounterSample &S : E.Counters) {
    TelemetryCounter *C = CounterRegistry::instance().find(S.Name);
    if (!C)
      return false; // entry from a binary with counters we do not have
    R.Counters.emplace_back(C, S.Value);
  }

  R.Histograms.clear();
  R.Histograms.reserve(E.Histograms.size());
  for (const CompileCacheEntry::HistogramState &HS : E.Histograms) {
    TelemetryHistogram &H = MetricsRegistry::instance().getOrCreate(
        HS.Component, HS.Name, HS.Unit, HS.Class);
    // A unit/class clash with an already-registered histogram means the
    // entry disagrees with this process about what the metric is.
    if (H.unit() != HS.Unit || H.metricClass() != HS.Class)
      return false;
    R.Histograms.emplace_back(&H, HS.H);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The cache proper
//===----------------------------------------------------------------------===//

CompileCache::CompileCache(std::string CacheDirIn, size_t MaxEntriesIn)
    : CacheDir(std::move(CacheDirIn)),
      MaxEntries(MaxEntriesIn == 0 ? 1 : MaxEntriesIn) {
  // Best-effort directory creation (one level). Failure is not an error:
  // writes fail-open into disk_write_failures and the in-memory cache
  // still serves.
  if (!CacheDir.empty())
    mkdir(CacheDir.c_str(), 0755);
}

std::string CompileCache::entryPath(const CompileCacheKey &Key) const {
  if (CacheDir.empty())
    return "";
  return CacheDir + "/" + Key.hex() + ".dbdscache";
}

std::shared_ptr<const CompileCacheEntry>
CompileCache::probe(const CompileCacheKey &Key) {
  const std::string Hex = Key.hex();
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Hex);
    if (It != S.Map.end())
      return It->second;
  }
  if (CacheDir.empty())
    return nullptr;
  // Disk probes do not populate the in-memory map: memory inserts are the
  // serial join's job, which keeps probe concurrency trivial and hit/miss
  // accounting schedule-independent.
  std::string Text;
  if (!readFileToString(entryPath(Key), Text))
    return nullptr; // no file: a plain miss
  auto E = std::make_shared<CompileCacheEntry>();
  if (!parseCacheEntry(Text, Key, *E)) {
    ++disk_load_failures; // corrupt/version-mismatched: fail-open miss
    return nullptr;
  }
  ++disk_loads;
  return E;
}

void CompileCache::insert(const CompileCacheKey &Key, CompileCacheEntry E) {
  const std::string Hex = Key.hex();
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.Map.count(Hex))
      return; // first insert wins
  }

  // Serialized once: it is both the on-disk image and the stored_bytes
  // accounting (identical with and without a cache directory).
  std::string Serialized = serializeCacheEntry(Key, E);
  auto Ptr = std::make_shared<const CompileCacheEntry>(std::move(E));
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Map.emplace(Hex, std::move(Ptr));
  }
  {
    std::lock_guard<std::mutex> Lock(SizeMu);
    InsertionOrder.push_back(Hex);
    ++Size;
  }
  ++stored;
  stored_bytes += Serialized.size();

  if (!CacheDir.empty()) {
    // Atomic publish: write the temporary, then rename. A torn write must
    // never be loadable (the checksum would catch it anyway; the rename
    // makes it impossible).
    const std::string Path = entryPath(Key);
    const std::string Tmp = Path + ".tmp";
    FILE *File = fopen(Tmp.c_str(), "wb");
    bool Ok = File != nullptr;
    if (File) {
      Ok = fwrite(Serialized.data(), 1, Serialized.size(), File) ==
           Serialized.size();
      Ok = (fclose(File) == 0) && Ok;
    }
    if (Ok && rename(Tmp.c_str(), Path.c_str()) != 0)
      Ok = false;
    if (!Ok) {
      remove(Tmp.c_str());
      ++disk_write_failures; // fail-open: the in-memory entry still serves
    }
  }

  // FIFO eviction to the capacity cap. Inserts are serial and index-
  // ordered, so the eviction sequence — and with it every probe outcome —
  // is deterministic.
  while (true) {
    std::string Victim;
    {
      std::lock_guard<std::mutex> Lock(SizeMu);
      if (Size <= MaxEntries)
        break;
      Victim = std::move(InsertionOrder.front());
      InsertionOrder.pop_front();
      --Size;
    }
    CompileCacheKey VictimKey;
    if (parseKeyHex(Victim, VictimKey)) {
      Shard &VS = shardFor(VictimKey);
      std::lock_guard<std::mutex> Lock(VS.Mu);
      VS.Map.erase(Victim);
    }
    ++evictions;
  }
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> Lock(SizeMu);
  return Size;
}
