// Planner-as-a-service core: the request handler behind `dapple serve`.
//
// A Server answers protocol requests (serve/protocol.h) against one
// process-wide plan cache: an LRU holding exactly
// ServerOptions::cache_entries plans behind one mutex, keyed by the
// canonical fingerprint of (model, cluster, global batch, schedule kind,
// memory cap, recompute policy, planner options). Identical requests return
// byte-identical cached plans without re-searching — the plan-reuse idiom
// of poplibs' ConvPlan cache applied to pipeline planning. Eviction and
// cache races only ever cost a re-search, never correctness: the parallel
// planner is byte-deterministic, so a recomputed entry equals the evicted
// one. A request plans outside the cache lock (Lookup, plan, Insert), so
// a hit holds the lock for one hash lookup and one list splice.
//
// Concurrency: HandleBatch fans request lines across the server's
// ThreadPool and returns responses slot-indexed in request order, so the
// response stream is byte-identical at every worker count. To keep that
// guarantee, response bodies carry no cache status and no wall-clock
// timing; those surface through the "stats" request kind and the
// MetricsRegistry (serve.requests, serve.cache.{hits,misses,evictions},
// serve.latency.<kind> histograms with p50/p95/p99).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/thread_pool.h"
#include "planner/dp_planner.h"
#include "serve/protocol.h"

namespace dapple::serve {

struct ServerOptions {
  /// Worker threads requests fan across: 1 = inline on the caller (the
  /// degenerate case determinism tests compare against), 0 = hardware
  /// concurrency, n > 1 = a pool of n.
  int workers = 1;
  /// Plan-cache capacity in entries, at least 1. A plan entry is a few
  /// hundred bytes, so thousands are cheap.
  long cache_entries = 1024;
  /// Largest number of request lines one HandleBatch call dispatches.
  int max_batch = 64;
};

/// Point-in-time server statistics (also rendered by the "stats" request).
struct ServerStats {
  std::int64_t requests = 0;
  std::int64_t plans = 0;
  std::int64_t simulates = 0;
  std::int64_t reports = 0;
  std::int64_t stats_requests = 0;
  std::int64_t errors = 0;
  CacheStats cache;
  long cache_capacity = 0;
  int workers = 1;
};

class Server {
 public:
  /// Throws dapple::Error when options.cache_entries is below 1.
  explicit Server(ServerOptions options = {});

  const ServerOptions& options() const { return options_; }
  int workers() const;

  /// Handles one request line, returning one response document (no
  /// trailing newline). Never throws: every failure becomes a structured
  /// error response.
  std::string HandleLine(const std::string& line);

  /// Handles a batch of request lines across the worker pool; responses
  /// match `lines` by index regardless of scheduling.
  std::vector<std::string> HandleBatch(const std::vector<std::string>& lines);

  ServerStats Stats() const;

 private:
  /// One cached planning result; shared_ptr so cache copies stay cheap.
  struct PlanEntry {
    planner::ParallelPlan plan;
    planner::PlanEstimate estimate;
    std::string plan_text;  // SerializePlan(plan), the byte-stable form
    int recompute_stages = 0;
  };
  using PlanEntryPtr = std::shared_ptr<const PlanEntry>;

  std::string Dispatch(const ServeRequest& request);
  /// plan, simulate and report: the plan fields, plus the iteration
  /// summary (simulate) or the whole iteration report (report).
  std::string HandleWithPlan(const ServeRequest& request);
  std::string HandleStats(const ServeRequest& request);

  /// The cached (or freshly planned and inserted) result for a request.
  PlanEntryPtr PlanFor(const ServeRequest& request, std::uint64_t* fingerprint);

  ServerOptions options_;
  LruCache<std::uint64_t, PlanEntryPtr> cache_;
  ThreadPool pool_;

  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> plans_{0};
  std::atomic<std::int64_t> simulates_{0};
  std::atomic<std::int64_t> reports_{0};
  std::atomic<std::int64_t> stats_requests_{0};
  std::atomic<std::int64_t> errors_{0};
};

}  // namespace dapple::serve
