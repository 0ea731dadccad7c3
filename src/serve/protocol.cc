#include "serve/protocol.h"

#include <limits>
#include <set>

#include "serve/json.h"

namespace dapple::serve {

const char* ToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPlan: return "plan";
    case RequestKind::kSimulate: return "simulate";
    case RequestKind::kReport: return "report";
    case RequestKind::kStats: return "stats";
  }
  return "?";
}

planner::PlannerOptions ServeRequest::ToPlannerOptions() const {
  planner::PlannerOptions options;
  options.global_batch_size = gbs;
  options.max_stages = max_stages;
  options.recompute = recompute;
  options.latency.memory_cap = memory_cap;
  options.latency.schedule_kind = schedule;
  options.num_threads = 1;
  options.max_subproblems = kMaxPlanSubproblems;
  return options;
}

namespace {

RequestKind ParseKind(const std::string& name) {
  if (name == "plan") return RequestKind::kPlan;
  if (name == "simulate") return RequestKind::kSimulate;
  if (name == "report") return RequestKind::kReport;
  if (name == "stats") return RequestKind::kStats;
  throw RequestError("bad_request", "unknown request kind '" + name +
                                        "' (plan | simulate | report | stats)");
}

/// Known field set per request family; anything else is rejected so typos
/// fail loudly instead of silently planning something unintended.
const std::set<std::string>& KnownFields() {
  static const std::set<std::string>* fields = new std::set<std::string>{
      "kind",       "id",         "model",      "config",
      "servers",    "gbs",        "schedule",   "memory_cap",
      "recompute",  "max_stages"};
  return *fields;
}

/// An integer field narrowed to int. A value outside [min, INT_MAX] is a bad
/// request, not a wrapped int: 4294967297 servers must not plan 1 server.
int IntField(const JsonValue& value, const std::string& field, int min) {
  const std::int64_t v = value.AsInt();
  if (v < min || v > std::numeric_limits<int>::max()) {
    throw RequestError("bad_request", field + " must be in [" + std::to_string(min) + ", " +
                                          std::to_string(std::numeric_limits<int>::max()) +
                                          "]");
  }
  return static_cast<int>(v);
}

}  // namespace

ServeRequest ParseRequest(const std::string& line) {
  if (line.size() > kMaxLineBytes) {
    throw RequestError("bad_request",
                       "line too long (over " + std::to_string(kMaxLineBytes) + " bytes)");
  }
  JsonValue doc;
  try {
    doc = ParseJson(line);
  } catch (const Error& e) {
    throw RequestError("parse_error", e.what());
  }
  if (!doc.is_object()) throw RequestError("bad_request", "request must be a JSON object");

  for (const std::string& key : doc.Keys()) {
    if (!KnownFields().count(key)) {
      throw RequestError("bad_request", "unknown field '" + key + "'");
    }
  }

  ServeRequest request;
  try {
    request.kind = ParseKind(doc.Get("kind").AsString());
    if (const JsonValue* id = doc.Find("id")) request.id = id->AsString();

    if (request.kind == RequestKind::kStats) return request;

    request.model = doc.Get("model").AsString();
    const std::string config = doc.Get("config").AsString();
    if (config.size() != 1 || (config[0] != 'A' && config[0] != 'B' && config[0] != 'C')) {
      throw RequestError("bad_request", "config must be \"A\", \"B\" or \"C\"");
    }
    request.config = config[0];
    request.servers = IntField(doc.Get("servers"), "servers", 1);
    request.gbs = static_cast<long>(doc.Get("gbs").AsInt());
    if (request.gbs <= 0) throw RequestError("bad_request", "gbs must be positive");

    if (const JsonValue* schedule = doc.Find("schedule")) {
      if (!runtime::ParseScheduleKind(schedule->AsString(), &request.schedule)) {
        throw RequestError("bad_request",
                           "unknown schedule kind '" + schedule->AsString() + "'");
      }
    }
    if (const JsonValue* cap = doc.Find("memory_cap")) {
      if (cap->is_string()) {
        request.memory_cap = ParseBytes(cap->AsString());
      } else {
        const std::int64_t bytes = cap->AsInt();
        if (bytes < 0) throw RequestError("bad_request", "memory_cap must be >= 0");
        request.memory_cap = static_cast<Bytes>(bytes);
      }
    }
    if (const JsonValue* recompute = doc.Find("recompute")) {
      request.recompute = planner::ParseRecomputePolicy(recompute->AsString());
    }
    if (const JsonValue* max_stages = doc.Find("max_stages")) {
      request.max_stages = IntField(*max_stages, "max_stages", 0);
    }
  } catch (const RequestError&) {
    throw;
  } catch (const Error& e) {
    // Field accessors and value parsers (ParseBytes, ParseRecomputePolicy)
    // throw plain dapple::Error; classify them all as bad requests.
    throw RequestError("bad_request", e.what());
  }
  return request;
}

}  // namespace dapple::serve
