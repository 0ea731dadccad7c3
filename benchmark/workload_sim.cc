// sim-corpus: 192-pipeline fuzz corpora (check::MakeFuzzCase) run the way
// callers run them — graph build plus simulation through
// PipelineExecutor::RunDetailed — one pipeline after another. One
// operation is one pass over kCorpora corpora, so that every operation
// averages over more pipelines than one corpus holds, which keeps the
// seed-to-seed spread of the timings small; throughput counts pipelines.
// A traced run samples single pipelines.
#include <bit>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "replay.h"
#include "runtime/executor.h"
#include "sim/engine.h"

namespace dapple::e2e {

namespace {

constexpr int kCorpusSize = 192;
constexpr int kCorpora = 8;

/// The kCorpora corpora, one after another.
std::vector<check::FuzzCase> Setup(std::uint64_t seed) {
  std::vector<check::FuzzCase> cases;
  for (int i = 0; i < kCorpora * kCorpusSize; ++i) {
    cases.push_back(check::MakeFuzzCase(MixSeed(seed, static_cast<std::uint64_t>(i))));
  }
  return cases;
}

runtime::ExecutionDetail Execute(const check::FuzzCase& c) {
  return runtime::PipelineExecutor(c.model, c.cluster, c.plan, c.options).RunDetailed();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-for-bit equality of everything a simulation reports.
bool SameResult(const sim::SimResult& a, const sim::SimResult& b) {
  if (!SameBits(a.makespan, b.makespan) || a.completed != b.completed ||
      a.tasks_unfinished != b.tasks_unfinished || a.records.size() != b.records.size() ||
      a.pools.size() != b.pools.size() || a.resources.size() != b.resources.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const sim::TaskRecord& x = a.records[i];
    const sim::TaskRecord& y = b.records[i];
    if (x.id != y.id || !SameBits(x.start, y.start) || !SameBits(x.end, y.end) ||
        x.executed != y.executed || x.started != y.started) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.pools.size(); ++i) {
    if (a.pools[i].peak() != b.pools[i].peak() ||
        !SameBits(a.pools[i].peak_time(), b.pools[i].peak_time()) ||
        a.pools[i].current() != b.pools[i].current()) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.resources.size(); ++i) {
    if (!SameBits(a.resources[i].busy, b.resources[i].busy) ||
        a.resources[i].tasks_executed != b.resources[i].tasks_executed) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult RunSimCorpus(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  // Set-up draws the corpora and warms up on one pass over each.
  auto setup = [&] {
    std::vector<check::FuzzCase> drawn = Setup(options.seed);
    for (const check::FuzzCase& c : drawn) Execute(c);
    return drawn;
  };
  const std::vector<check::FuzzCase> cases = RepeatSetup(result, setup);

  SpanBuffer* spans = options.trace ? &tracer.NewBuffer() : nullptr;
  std::vector<SampledOp> sampled;
  std::vector<runtime::ExecutionDetail> last;  // the final pass, checked below
  const std::size_t last_pass = cases.size() - kCorpusSize;

  const RegistrySnapshot before = RegistrySnapshot::Take();
  const Clock::time_point start = Clock::now();
  std::int64_t pipeline = 0;
  do {
    last.clear();
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i, ++pipeline) {
      const Clock::time_point t0 = Clock::now();
      runtime::ExecutionDetail detail = Execute(cases[i]);
      if (spans && pipeline % kSampleEvery == 0) {
        const Clock::time_point t1 = Clock::now();
        sampled.push_back(
            SampledOp{pipeline, spans->Add("op.pipeline", t0, t1, pipeline), i});
        result.record_seconds += SecondsBetween(t1, Clock::now());
      }
      if (i >= last_pass) last.push_back(std::move(detail));
    }
    result.ops.push_back({pass_start, Clock::now()});
  } while (SecondsBetween(start, Clock::now()) < options.seconds);
  result.window = {start, Clock::now()};
  const RegistrySnapshot after = RegistrySnapshot::Take();
  result.attempted = static_cast<long>(pipeline);
  AddRegistryLayers(result, before, after);
  RepeatSetup(result, setup);

  // The final pass must match the reference engine bit for bit.
  for (std::size_t i = 0; i < last.size(); ++i) {
    const runtime::ExecutionDetail& d = last[i];
    if (!SameResult(d.result,
                    sim::RunReferenceEngine(d.pipeline.graph, d.pipeline.engine_options))) {
      result.Fail("corpus " + std::to_string(kCorpora - 1) + " pipeline " + std::to_string(i) +
                  " differs from the reference engine");
    }
  }

  if (spans) {
    Replayer replayer(*spans, kReplayShare * options.seconds);
    for (const SampledOp& s : sampled) {
      if (!replayer.HasBudget()) break;
      const check::FuzzCase& c = cases[s.input];
      replayer.Pipeline(s, c.model, c.cluster, c.plan, c.options, /*with_report=*/false);
    }
    replayer.Finish(result);
  }
  return result;
}

}  // namespace dapple::e2e
