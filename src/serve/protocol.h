// The serve wire protocol: newline-delimited JSON, one request object in,
// one response object out, in request order. Carried unchanged over stdio
// and Unix/TCP sockets.
//
// Request object fields (kind selects the rest):
//   kind     "plan" | "simulate" | "report" | "stats"       (required)
//   id       string echoed verbatim into the response        (optional)
//   model    benchmark model name, e.g. "GNMT-16"            (plan/sim/report)
//   config   cluster config letter "A" | "B" | "C"           (ditto)
//   servers  number of servers, 1..INT_MAX                   (ditto)
//   gbs      global batch size                               (ditto)
//   schedule schedule family name (default "DAPPLE"); the
//            family the plan's memory check models, the
//            Session re-ranks under and simulate/report run  (optional)
//   memory_cap    bytes as a number, or a string with binary
//                 suffix ("12GiB"); 0 = uncapped             (optional)
//   recompute     "off" | "all" | "auto" (default "off"); the
//                 plan carries the chosen per-stage flags, so
//                 "all" returns every stage flagged          (optional)
//   max_stages    planner stage cap, 0..INT_MAX (default
//                 0 = devices)                               (optional)
//
// Every request plans on its own worker thread: parallelism lives across
// requests (ServerOptions::workers), and the plan is identical anyway.
// Each search runs under the fixed budget kMaxPlanSubproblems: a request
// whose search would pass it is answered "too_large" (with the counts the
// search reached in the message) instead of holding a worker for minutes
// or exhausting memory. The budget counts subproblems, not time, so the
// same request is too large at every worker count and on every host. A
// too_large answer is not cached: a repeat request searches again.
//
// Success responses carry {"id","ok":true,"kind",...}; failures carry
// {"id","ok":false,"error":{"code","message"}} and never kill the daemon.
// Cache hit/miss status is deliberately NOT in per-request responses: two
// identical requests racing in one batch may both miss, and response
// bodies must stay byte-identical at every worker count. Hit rates are
// observable through the "stats" kind and the metrics registry instead.
#pragma once

#include <string>

#include "common/error.h"
#include "common/units.h"
#include "planner/dp_planner.h"
#include "runtime/schedule.h"

namespace dapple::serve {

enum class RequestKind { kPlan, kSimulate, kReport, kStats };

const char* ToString(RequestKind kind);

/// The planner search budget of every plan-carrying request
/// (PlannerOptions::max_subproblems). Sized from serial searches on a
/// 4-core host: the largest Table V search enumerates 30,377 subproblems
/// and the 32-device GNMT-16 search 191,115, which fit 16x and 2.6x over.
/// A 500k-subproblem search takes 2-3 s. The deeper models on 32
/// Config-A devices (XLNet-36, AmoebaNet-36, BERT-48: 590k-789k) do not
/// fit, and a 128-device GNMT-16 request passes the budget within 0.5 s
/// and 64 MB.
inline constexpr long kMaxPlanSubproblems = 500'000;

/// Structured request failure: `code` is the stable machine-readable
/// error class emitted on the wire ("parse_error", "bad_request",
/// "unknown_model", "infeasible", "too_large"), `what()` the human
/// message.
class RequestError : public Error {
 public:
  RequestError(std::string code, const std::string& message)
      : Error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// One parsed request. Plan-affecting knobs are expressed directly as
/// PlannerOptions so the cache fingerprint covers exactly what the planner
/// will see.
struct ServeRequest {
  RequestKind kind = RequestKind::kStats;
  std::string id;
  std::string model;
  char config = 'A';
  int servers = 0;
  long gbs = 0;
  runtime::ScheduleKind schedule = runtime::ScheduleKind::kDapple;
  Bytes memory_cap = 0;
  planner::RecomputePolicy recompute = planner::RecomputePolicy::kOff;
  int max_stages = 0;

  /// The planner options this request resolves to (schedule kind folded
  /// into the latency options, exactly as `dapple plan` does), serial and
  /// under the kMaxPlanSubproblems budget.
  planner::PlannerOptions ToPlannerOptions() const;
};

/// Parses one request line. Throws RequestError on malformed JSON
/// ("parse_error") or structurally invalid requests ("bad_request") —
/// including lines longer than kMaxLineBytes, unknown request kinds,
/// unknown fields, missing required fields and out-of-range values.
/// Model-name resolution happens later so it can be reported as
/// "unknown_model".
ServeRequest ParseRequest(const std::string& line);

}  // namespace dapple::serve
