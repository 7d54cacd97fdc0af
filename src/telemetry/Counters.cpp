//===- telemetry/Counters.cpp - Named-counter registry ---------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Counters.h"

#include "telemetry/Json.h"

#include <algorithm>

using namespace dbds;

TelemetryCounter::TelemetryCounter(const char *Component, const char *Name)
    : Component(Component), Name(Name) {
  CounterRegistry::instance().add(this);
}

namespace {
/// The calling thread's innermost shard (null = increments hit the global
/// atomics directly).
thread_local CounterShard *ActiveShard = nullptr;
} // namespace

void TelemetryCounter::bump(uint64_t N) {
  if (CounterShard *Shard = ActiveShard) {
    Shard->bump(this, N);
    return;
  }
  Value.fetch_add(N, std::memory_order_relaxed);
}

CounterShard::CounterShard() : Previous(ActiveShard) { ActiveShard = this; }

CounterShard::~CounterShard() {
  flush();
  ActiveShard = Previous;
}

CounterShard *CounterShard::active() { return ActiveShard; }

void CounterShard::bump(TelemetryCounter *C, uint64_t N) {
  for (auto &[Counter, Value] : Buffered) {
    if (Counter == C) {
      Value += N;
      return;
    }
  }
  Buffered.emplace_back(C, N);
}

std::vector<CounterSample> CounterShard::snapshot() const {
  std::vector<CounterSample> Out;
  Out.reserve(Buffered.size());
  for (const auto &[Counter, Value] : Buffered)
    Out.push_back({Counter->qualifiedName(), Value});
  std::sort(Out.begin(), Out.end(),
            [](const CounterSample &A, const CounterSample &B) {
              return A.Name < B.Name;
            });
  return Out;
}

void CounterShard::flush() {
  for (auto &[Counter, Value] : Buffered)
    Counter->addGlobal(Value);
  Buffered.clear();
}

std::vector<std::pair<TelemetryCounter *, uint64_t>> CounterShard::take() {
  std::vector<std::pair<TelemetryCounter *, uint64_t>> Out =
      std::move(Buffered);
  Buffered.clear();
  return Out;
}

void CounterRegistry::publishBatch(
    const std::vector<std::pair<TelemetryCounter *, uint64_t>> &B) {
  for (const auto &[Counter, Value] : B)
    Counter->addGlobal(Value);
}

CounterRegistry &CounterRegistry::instance() {
  static CounterRegistry Registry;
  return Registry;
}

void CounterRegistry::add(TelemetryCounter *C) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters.push_back(C);
}

std::vector<CounterSample> CounterRegistry::snapshot(bool SkipZero) const {
  std::vector<CounterSample> Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Out.reserve(Counters.size());
    for (const TelemetryCounter *C : Counters) {
      uint64_t V = C->value();
      if (SkipZero && V == 0)
        continue;
      Out.push_back({C->qualifiedName(), V});
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const CounterSample &A, const CounterSample &B) {
              return A.Name < B.Name;
            });
  return Out;
}

void CounterRegistry::resetAll() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (TelemetryCounter *C : Counters)
    C->reset();
}

std::vector<CounterSample>
CounterRegistry::delta(const std::vector<CounterSample> &Before,
                       const std::vector<CounterSample> &After) {
  std::vector<CounterSample> Out;
  // Both snapshots are sorted by name; walk them together. A counter
  // missing from Before (registered later) contributes its full value.
  size_t BI = 0;
  for (const CounterSample &A : After) {
    while (BI != Before.size() && Before[BI].Name < A.Name)
      ++BI;
    uint64_t Base =
        (BI != Before.size() && Before[BI].Name == A.Name) ? Before[BI].Value
                                                           : 0;
    if (A.Value > Base)
      Out.push_back({A.Name, A.Value - Base});
  }
  return Out;
}

std::string
CounterRegistry::renderText(const std::vector<CounterSample> &Samples) {
  std::string Out;
  for (const CounterSample &S : Samples)
    Out += S.Name + " = " + std::to_string(S.Value) + "\n";
  return Out;
}

std::string
CounterRegistry::renderJson(const std::vector<CounterSample> &Samples) {
  std::string Out = "{";
  for (size_t I = 0; I != Samples.size(); ++I) {
    if (I != 0)
      Out += ",";
    Out += jsonString(Samples[I].Name) + ":" + jsonNumber(Samples[I].Value);
  }
  Out += "}";
  return Out;
}
