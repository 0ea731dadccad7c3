#include "serve/server.h"

#include <chrono>
#include <string>

#include "dapple/dapple.h"
#include "obs/json.h"
#include "obs/report.h"
#include "planner/fingerprint.h"

namespace dapple::serve {

namespace {

/// {"id":...,"ok":false,"error":{"code":...,"message":...}} on one line.
std::string ErrorResponse(const std::string& id, const std::string& code,
                          const std::string& message) {
  obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
  w.BeginObject();
  if (!id.empty()) w.Field("id", id);
  w.Field("ok", false);
  w.Key("error").BeginObject();
  w.Field("code", code);
  w.Field("message", message);
  w.EndObject();
  w.EndObject();
  return w.str();
}

void WriteHistogramSummary(obs::JsonWriter& w, const obs::Histogram& h) {
  w.BeginObject();
  w.Field("count", h.count());
  w.Field("mean", h.mean());
  w.Field("p50", h.Quantile(0.50));
  w.Field("p95", h.Quantile(0.95));
  w.Field("p99", h.Quantile(0.99));
  w.Field("max", h.max());
  w.EndObject();
}

std::size_t CacheCapacity(long cache_entries) {
  if (cache_entries < 1) {
    throw Error("ServerOptions::cache_entries must be at least 1, got " +
                std::to_string(cache_entries));
  }
  return static_cast<std::size_t>(cache_entries);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      cache_(CacheCapacity(options.cache_entries)),
      pool_(static_cast<std::size_t>(options.workers)) {}

int Server::workers() const { return static_cast<int>(pool_.num_threads()); }

std::vector<std::string> Server::HandleBatch(const std::vector<std::string>& lines) {
  return pool_.Map<std::string>(lines.size(),
                                [&](std::size_t i) { return HandleLine(lines[i]); });
}

std::string Server::HandleLine(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  ServeRequest request;
  try {
    request = ParseRequest(line);
  } catch (const RequestError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse("", e.code(), e.what());
  }

  const auto t0 = std::chrono::steady_clock::now();
  try {
    std::string response = Dispatch(request);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    latency_[static_cast<std::size_t>(request.kind)].Observe(seconds);
    return response;
  } catch (const RequestError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request.id, e.code(), e.what());
  } catch (const std::exception& e) {
    // The daemon's prime directive: a request may fail, the process may
    // not. Anything unclassified becomes a structured internal error.
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request.id, "internal", e.what());
  }
}

std::string Server::Dispatch(const ServeRequest& request) {
  switch (request.kind) {
    case RequestKind::kPlan:
      plans_.fetch_add(1, std::memory_order_relaxed);
      return HandleWithPlan(request);
    case RequestKind::kSimulate:
      simulates_.fetch_add(1, std::memory_order_relaxed);
      return HandleWithPlan(request);
    case RequestKind::kReport:
      reports_.fetch_add(1, std::memory_order_relaxed);
      return HandleWithPlan(request);
    case RequestKind::kStats:
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      return HandleStats(request);
  }
  throw RequestError("bad_request", "unhandled request kind");
}

Server::PlanEntryPtr Server::PlanFor(const ServeRequest& request,
                                     std::uint64_t* fingerprint) {
  model::ModelProfile model = [&] {
    try {
      return model::ModelByName(request.model);
    } catch (const Error& e) {
      throw RequestError("unknown_model", e.what());
    }
  }();
  const topo::Cluster cluster = topo::MakeConfig(request.config, request.servers);

  const planner::PlannerOptions options = request.ToPlannerOptions();
  // The fingerprint covers only plan-affecting inputs; thread counts are
  // excluded by FingerprintPlannerOptions.
  const std::uint64_t key = planner::FingerprintPlanRequest(model, cluster, request.gbs, options);
  if (fingerprint) *fingerprint = key;

  if (std::optional<PlanEntryPtr> cached = cache_.Lookup(key)) return *cached;

  Session session(model, cluster);
  planner::PlanResult planned;
  try {
    planned = session.Plan(request.gbs, options);
  } catch (const planner::SearchTooLarge& e) {
    // Over the search budget: refused before it could hold the worker or
    // its memory for long. Not cached, like every refusal.
    throw RequestError("too_large", e.what());
  } catch (const Error& e) {
    // The planner throws exactly when no feasible plan exists (e.g. an
    // infeasible memory cap even with recomputation everywhere). The
    // refusal is the answer; it must not kill the daemon.
    throw RequestError("infeasible", e.what());
  }

  auto entry = std::make_shared<const PlanEntry>(PlanEntry{
      planned.plan, planned.estimate, planner::SerializePlan(planned.plan),
      planned.stats.recompute_stages});
  cache_.Insert(key, entry);
  return entry;
}

namespace {

/// The response fields shared by every plan-carrying response kind.
void WritePlanFields(obs::JsonWriter& w, const ServeRequest& request,
                     std::uint64_t fingerprint, const planner::ParallelPlan& plan,
                     const planner::PlanEstimate& estimate, const std::string& plan_text,
                     int recompute_stages) {
  w.Field("model", request.model);
  w.Field("config", std::string(1, request.config));
  w.Field("servers", request.servers);
  w.Field("gbs", static_cast<std::int64_t>(request.gbs));
  w.Field("schedule", runtime::ToString(request.schedule));
  w.Field("fingerprint", FingerprintToString(fingerprint));
  w.Field("plan", plan.ToString());
  w.Field("split", plan.SplitString());
  w.Field("plan_text", plan_text);
  w.Field("stages", plan.num_stages());
  w.Field("devices", plan.num_devices());
  w.Field("latency", estimate.latency);
  w.Field("acr", estimate.acr);
  w.Field("speedup", estimate.speedup);
  w.Field("micro_batch_size", estimate.micro_batch_size);
  w.Field("num_micro_batches", estimate.num_micro_batches);
  w.Field("peak_memory", estimate.max_peak_memory);
  w.Field("memory_cap", request.memory_cap);
  w.Field("recompute_stages", recompute_stages);
}

}  // namespace

std::string Server::HandleWithPlan(const ServeRequest& request) {
  std::uint64_t fingerprint = 0;
  const PlanEntryPtr entry = PlanFor(request, &fingerprint);
  obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
  w.BeginObject();
  if (!request.id.empty()) w.Field("id", request.id);
  w.Field("ok", true);
  w.Field("kind", ToString(request.kind));
  WritePlanFields(w, request, fingerprint, entry->plan, entry->estimate, entry->plan_text,
                  entry->recompute_stages);
  if (request.kind != RequestKind::kPlan) {
    const obs::IterationReport report = obs::RunIteration(
        model::ModelByName(request.model), topo::MakeConfig(request.config, request.servers),
        entry->plan, runtime::BuildOptionsFor(request.ToPlannerOptions()));
    if (request.kind == RequestKind::kSimulate) {
      w.Field("simulated_latency", report.makespan);
      w.Field("throughput", report.throughput);
      w.Field("simulated_speedup", report.speedup);
      w.Field("avg_peak_memory", report.avg_peak_memory);
      w.Field("max_peak_memory", report.max_peak_memory);
      w.Field("utilization", report.utilization);
      w.Field("oom", report.oom);
    } else {
      w.Key("report");
      obs::WriteJson(w, report);
    }
  }
  w.EndObject();
  return w.str();
}

std::string Server::HandleStats(const ServeRequest& request) {
  const ServerStats stats = Stats();

  obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
  w.BeginObject();
  if (!request.id.empty()) w.Field("id", request.id);
  w.Field("ok", true);
  w.Field("kind", "stats");
  w.Field("workers", stats.workers);
  w.Key("requests").BeginObject();
  w.Field("total", stats.requests);
  w.Field("plan", stats.plans);
  w.Field("simulate", stats.simulates);
  w.Field("report", stats.reports);
  w.Field("stats", stats.stats_requests);
  w.Field("errors", stats.errors);
  w.EndObject();
  w.Key("cache").BeginObject();
  w.Field("hits", stats.cache.hits);
  w.Field("misses", stats.cache.misses);
  w.Field("entries", stats.cache.entries);
  w.Field("evictions", stats.cache.evictions);
  w.Field("capacity", static_cast<std::int64_t>(stats.cache_capacity));
  w.Field("hit_rate", stats.cache.hit_rate());
  w.EndObject();
  w.Key("latency").BeginObject();
  for (const RequestKind kind :
       {RequestKind::kPlan, RequestKind::kSimulate, RequestKind::kReport, RequestKind::kStats}) {
    w.Key(ToString(kind));
    WriteHistogramSummary(w, latency_[static_cast<std::size_t>(kind)]);
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.plans = plans_.load(std::memory_order_relaxed);
  stats.simulates = simulates_.load(std::memory_order_relaxed);
  stats.reports = reports_.load(std::memory_order_relaxed);
  stats.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.cache = cache_.Stats();
  stats.cache_capacity = static_cast<long>(cache_.capacity());
  stats.workers = workers();
  return stats;
}

}  // namespace dapple::serve
