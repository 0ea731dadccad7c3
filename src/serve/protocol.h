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

/// Structured request failure: `code` is the stable machine-readable
/// error class emitted on the wire ("parse_error", "bad_request",
/// "unknown_model", "infeasible"), `what()` the human message.
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
  /// into the latency options, exactly as `dapple plan` does).
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
