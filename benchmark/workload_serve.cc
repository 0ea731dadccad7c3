// serve-hot: one closed-loop client calling serve::Server::HandleLine on a
// default server whose plan cache was warmed in setup, so every request
// hits and the planner is idle.
//
// The request lines are the six Table V models x {A with 1 server, B with
// 4, C with 4} x {DAPPLE, GPipe} x {plan, simulate, report}; the 96 that
// plan successfully make up the mix. The client sends whole rounds: each
// round holds every line a fixed number of times, Zipf(s=1) over a fixed
// popularity order with the plan lines on top, shuffled by the seed. Every run therefore sends the
// same request mix whatever its seed, and every response must be
// byte-equal to the reference response for its line computed in setup.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dapple/dapple.h"
#include "obs/json.h"
#include "planner/plan_io.h"
#include "replay.h"
#include "serve/fingerprint.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace dapple::e2e {

namespace {

const char* const kModels[] = {"ResNet-50", "VGG-19",   "GNMT-16",
                               "BERT-48",   "XLNet-36", "AmoebaNet-36"};
const long kTableVGbs[] = {2048, 2048, 1024, 64, 128, 128};

/// The most popular line appears this many times in a round, the line of
/// popularity rank r about kRoundHead / r times (at least once).
constexpr double kRoundHead = 48.0;

std::string RequestLine(const char* kind, const char* model, char config, int servers,
                        long gbs, const char* schedule) {
  obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
  w.BeginObject();
  w.Field("kind", kind).Field("model", model).Field("config", std::string(1, config));
  w.Field("servers", servers).Field("gbs", static_cast<std::int64_t>(gbs));
  w.Field("schedule", schedule);
  w.EndObject();
  return w.str();
}

/// The server and its request mix: the lines that plan successfully, each
/// with its reference response, and one round of line indices.
struct ServeState {
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> lines;
  std::vector<std::string> references;
  std::vector<serve::RequestKind> kinds;
  std::vector<std::size_t> round;
};

ServeState Setup() {
  ServeState state;
  state.server = std::make_unique<serve::Server>();
  // Answering every candidate once warms the cache; the responses of the
  // ones that succeed are the references.
  for (int m = 0; m < 6; ++m) {
    for (const auto& [config, servers] : {std::pair{'A', 1}, {'B', 4}, {'C', 4}}) {
      for (const char* schedule : {"DAPPLE", "GPipe"}) {
        for (const char* kind : {"plan", "simulate", "report"}) {
          const std::string line =
              RequestLine(kind, kModels[m], config, servers, kTableVGbs[m], schedule);
          const std::string response = state.server->HandleLine(line);
          if (response.find("\"ok\":true") == std::string::npos) continue;
          state.lines.push_back(line);
          state.references.push_back(response);
          state.kinds.push_back(serve::ParseRequest(line).kind);
        }
      }
    }
  }
  // Popularity ranks from a fixed permutation, the same for every seed,
  // with every plan line ranked above every simulate and report line:
  // plans are what a planning service is mostly asked for. Plan hits then
  // make up three quarters of the requests, so the median request is a
  // plan hit rather than one from the sparse gap between the cheap plan
  // and the costly simulate/report requests, where run-to-run noise would
  // move it most.
  std::vector<std::size_t> order(state.lines.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(0x5eedf00d);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::stable_partition(order.begin(), order.end(), [&](std::size_t line) {
    return state.kinds[line] == serve::RequestKind::kPlan;
  });
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const long copies = std::max(1L, std::lround(kRoundHead / static_cast<double>(rank + 1)));
    state.round.insert(state.round.end(), static_cast<std::size_t>(copies), order[rank]);
  }
  return state;
}

const char* SpanName(serve::RequestKind kind) {
  switch (kind) {
    case serve::RequestKind::kPlan: return "serve.plan";
    case serve::RequestKind::kSimulate: return "serve.simulate";
    case serve::RequestKind::kReport: return "serve.report";
    case serve::RequestKind::kStats: break;
  }
  return "serve.stats";
}

/// At most `limit` indices spread evenly over [0, count).
std::vector<std::size_t> SpreadPick(std::size_t count, std::size_t limit) {
  std::vector<std::size_t> picks;
  const std::size_t n = std::min(count, limit);
  for (std::size_t i = 0; i < n; ++i) picks.push_back(i * count / n);
  return picks;
}

/// Replays sampled requests through parse, model and cluster construction,
/// fingerprinting and (simulate/report) the pipeline layers.
void ReplayServe(const ServeState& state, const std::vector<SampledOp>& sampled,
                 const RunOptions& options, SpanBuffer& spans, RunResult& result) {
  Replayer replayer(spans, kReplayShare * options.seconds);
  std::map<std::size_t, planner::ParallelPlan> plans;  // by line, from references
  for (std::size_t pick : SpreadPick(sampled.size(), 2048)) {
    if (!replayer.HasBudget()) break;
    const SampledOp& s = sampled[pick];
    const serve::ServeRequest request = spans.Time(
        "serve.parse", s.op, s.span, [&] { return serve::ParseRequest(state.lines[s.input]); });
    const model::ModelProfile model = spans.Time(
        "model.by_name", s.op, s.span, [&] { return model::ModelByName(request.model); });
    const topo::Cluster cluster = spans.Time("topo.make_config", s.op, s.span, [&] {
      return topo::MakeConfig(request.config, request.servers);
    });
    const planner::PlannerOptions planner_options = request.ToPlannerOptions();
    spans.Time("serve.fingerprint", s.op, s.span, [&] {
      return serve::FingerprintPlanRequest(model, cluster, request.gbs, planner_options);
    });
    if (request.kind == serve::RequestKind::kPlan) continue;
    auto it = plans.find(s.input);
    if (it == plans.end()) {
      const serve::JsonValue reference = serve::ParseJson(state.references[s.input]);
      it = plans.emplace(s.input, planner::ParsePlan(reference.Get("plan_text").AsString()))
               .first;
    }
    runtime::BuildOptions build;
    build.global_batch_size = request.gbs;
    build.schedule.kind = request.schedule;
    build.memory_cap = request.memory_cap;
    replayer.Pipeline(s, model, cluster, it->second, build,
                      request.kind == serve::RequestKind::kReport);
  }
  replayer.Finish(result);
}

}  // namespace

RunResult RunServeHot(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  const ServeState state = RepeatSetup(result, Setup);
  SpanBuffer* spans = options.trace ? &tracer.NewBuffer() : nullptr;
  std::vector<SampledOp> sampled;
  Rng rng(MixSeed(options.seed, 100));
  std::vector<std::size_t> round = state.round;

  // Sends one round in a fresh seeded order and checks every response.
  std::int64_t op = 0;
  auto send_round = [&](bool timed) {
    for (std::size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[static_cast<std::size_t>(
                                  rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (std::size_t line : round) {
      const Clock::time_point t0 = Clock::now();
      const std::string response = state.server->HandleLine(state.lines[line]);
      const Clock::time_point t1 = Clock::now();
      if (response != state.references[line]) {
        result.Fail("response differs from reference for " + state.lines[line]);
      }
      if (!timed) continue;
      result.ops.push_back({t0, t1});
      if (spans && op % kSampleEvery == 0) {
        sampled.push_back(
            SampledOp{op, spans->Add(SpanName(state.kinds[line]), t0, t1, op), line});
        result.record_seconds += SecondsBetween(t1, Clock::now());
      }
      ++op;
    }
  };

  // Room for every request of a long run up front: growing the vector in
  // the window would add its copies to the peak RSS.
  result.ops.reserve(std::size_t{1} << 21);
  send_round(/*timed=*/false);  // warm-up
  const serve::ServerStats stats_before = state.server->Stats();
  const RegistrySnapshot before = RegistrySnapshot::Take();
  const Clock::time_point start = Clock::now();
  do {
    send_round(/*timed=*/true);
  } while (SecondsBetween(start, Clock::now()) < options.seconds);
  result.window = {start, Clock::now()};
  const RegistrySnapshot after = RegistrySnapshot::Take();
  const serve::ServerStats stats_after = state.server->Stats();
  result.attempted = static_cast<long>(result.ops.size());
  RepeatSetup(result, Setup);

  const auto hits = stats_after.cache.hits - stats_before.cache.hits;
  const auto misses = stats_after.cache.misses - stats_before.cache.misses;
  if (misses > 0) result.Fail("the warmed plan cache missed", static_cast<long>(misses));
  AddRegistryLayers(result, before, after);
  result.layers["serve.cache_hit_rate"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;

  if (spans) ReplayServe(state, sampled, options, tracer.NewBuffer(), result);
  return result;
}

}  // namespace dapple::e2e
