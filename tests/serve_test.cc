// Tests for the serve subsystem: the JSON value parser, the request
// protocol (malformed input must become structured errors, never a crash),
// the fingerprint-keyed plan cache and its exact capacity, worker-count
// response invariance and the one connection loop, over a pipe (as
// `dapple serve --stdio` runs it) and a Unix socket.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "model/zoo.h"
#include "serve/fingerprint.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace dapple::serve {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServeJson, ParsesScalarsObjectsAndArrays) {
  const JsonValue doc = ParseJson(
      R"({"s":"a\"b\n","n":-2.5,"i":42,"b":true,"z":null,"a":[1,2,3],"o":{"k":"v"}})");
  EXPECT_EQ(doc.Get("s").AsString(), "a\"b\n");
  EXPECT_DOUBLE_EQ(doc.Get("n").AsDouble(), -2.5);
  EXPECT_EQ(doc.Get("i").AsInt(), 42);
  EXPECT_TRUE(doc.Get("b").AsBool());
  EXPECT_TRUE(doc.Get("z").is_null());
  EXPECT_EQ(doc.Get("a").AsArray().size(), 3u);
  EXPECT_EQ(doc.Get("o").Get("k").AsString(), "v");
}

TEST(ServeJson, KeysPreserveInsertionOrder) {
  const JsonValue doc = ParseJson(R"({"z":1,"a":2,"m":3})");
  EXPECT_EQ(doc.Keys(), (std::vector<std::string>{"z", "a", "m"}));
}

TEST(ServeJson, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "{\"a\"", "{\"a\":", "{\"a\":1,", "[1,2", "\"unterminated",
        "{\"a\":1}trailing", "tru", "{'a':1}", "{\"a\":01x}", "{\"a\":--1}"}) {
    EXPECT_THROW(ParseJson(bad), Error) << "input: " << bad;
  }
}

TEST(ServeJson, NestingIsBoundedByTheDepthLimit) {
  auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(ParseJson(nested(kMaxJsonDepth)));
  EXPECT_THROW(ParseJson(nested(kMaxJsonDepth + 1)), Error);
  EXPECT_THROW(ParseJson(std::string(kMaxJsonDepth, '[') + "{\"a\":1}" +
                         std::string(kMaxJsonDepth, ']')),
               Error);
}

TEST(ServeJson, TypeMismatchesThrow) {
  const JsonValue doc = ParseJson(R"({"s":"x","n":1})");
  EXPECT_THROW(doc.Get("s").AsInt(), Error);
  EXPECT_THROW(doc.Get("n").AsString(), Error);
  EXPECT_THROW(doc.Get("missing"), Error);
}

// ------------------------------------------------------------ protocol --

TEST(ServeProtocol, ParsesFullPlanRequest) {
  const ServeRequest r = ParseRequest(
      R"({"kind":"plan","id":"x1","model":"GNMT-16","config":"B","servers":2,)"
      R"("gbs":64,"schedule":"gpipe","memory_cap":"2GiB","recompute":"auto",)"
      R"("max_stages":4})");
  EXPECT_EQ(r.kind, RequestKind::kPlan);
  EXPECT_EQ(r.id, "x1");
  EXPECT_EQ(r.model, "GNMT-16");
  EXPECT_EQ(r.config, 'B');
  EXPECT_EQ(r.servers, 2);
  EXPECT_EQ(r.gbs, 64);
  EXPECT_EQ(r.schedule, runtime::ScheduleKind::kGPipe);
  EXPECT_EQ(r.memory_cap, 2_GiB);
  EXPECT_EQ(r.recompute, planner::RecomputePolicy::kAuto);
  EXPECT_EQ(r.max_stages, 4);
}

void ExpectRequestError(const std::string& line, const std::string& code) {
  try {
    ParseRequest(line);
    FAIL() << "expected RequestError for: " << line;
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), code) << "line: " << line << " message: " << e.what();
  }
}

TEST(ServeProtocol, MalformedRequestsBecomeStructuredErrors) {
  ExpectRequestError("", "parse_error");
  ExpectRequestError("{\"kind\":\"plan\"", "parse_error");  // truncated
  ExpectRequestError("not json at all", "parse_error");
  ExpectRequestError("[1,2,3]", "bad_request");  // not an object
  ExpectRequestError(R"({"kind":"destroy"})", "bad_request");  // unknown kind
  ExpectRequestError(R"({"kind":"plan","turbo":1})", "bad_request");  // unknown field
  ExpectRequestError(R"({"kind":"plan"})", "bad_request");  // missing model
  ExpectRequestError(
      R"({"kind":"plan","model":"GNMT-16","config":"Z","servers":2,"gbs":64})",
      "bad_request");
  ExpectRequestError(
      R"({"kind":"plan","model":"GNMT-16","config":"A","servers":0,"gbs":64})",
      "bad_request");
  ExpectRequestError(
      R"({"kind":"plan","model":"GNMT-16","config":"A","servers":2,"gbs":-8})",
      "bad_request");
  ExpectRequestError(R"({"kind":"plan","model":"GNMT-16","config":"A","servers":2,)"
                     R"("gbs":64,"memory_cap":"12 parsecs"})",
                     "bad_request");
  ExpectRequestError(R"({"kind":"plan","model":"GNMT-16","config":"A","servers":2,)"
                     R"("gbs":64,"schedule":"fifo"})",
                     "bad_request");
  // At the length bound a line still reaches the JSON parser; one byte
  // past it is refused before parsing.
  ExpectRequestError(std::string(kMaxLineBytes, ' '), "parse_error");
  ExpectRequestError(std::string(kMaxLineBytes + 1, ' '), "bad_request");
}

TEST(ServeProtocol, IntegersOutsideTheIntRangeAreBadRequests) {
  // Narrowed without a range check, 2^32 + 1 servers would plan 1 server
  // and 2^32 max_stages would mean 0, i.e. unbounded.
  ExpectRequestError(
      R"({"kind":"plan","model":"GNMT-16","config":"A","servers":4294967297,"gbs":64})",
      "bad_request");
  ExpectRequestError(R"({"kind":"plan","model":"GNMT-16","config":"A","servers":2,)"
                     R"("gbs":64,"max_stages":4294967296})",
                     "bad_request");
  ExpectRequestError(R"({"kind":"plan","model":"GNMT-16","config":"A","servers":2,)"
                     R"("gbs":64,"max_stages":-1})",
                     "bad_request");
}

TEST(ServeProtocol, MemoryCapOutsideTheByteRangeIsABadRequest) {
  for (const char* cap : {"inf", "nan", "1e400", "0x10", "99999999999999999999GiB"}) {
    ExpectRequestError(R"({"kind":"plan","model":"GNMT-16","config":"A","servers":2,)"
                       R"("gbs":64,"memory_cap":")" +
                           std::string(cap) + "\"}",
                       "bad_request");
  }
}

// -------------------------------------------------------------- server --

std::string PlanLine(const std::string& id, const std::string& model, char config,
                     int servers, long gbs, const std::string& extra = "") {
  return "{\"kind\":\"plan\",\"id\":\"" + id + "\",\"model\":\"" + model +
         "\",\"config\":\"" + std::string(1, config) +
         "\",\"servers\":" + std::to_string(servers) +
         ",\"gbs\":" + std::to_string(gbs) + extra + "}";
}

TEST(ServeServer, IdenticalRequestsHitTheCacheWithIdenticalBytes) {
  Server server;
  const std::string line = PlanLine("a", "GNMT-16", 'A', 2, 64);
  const std::string first = server.HandleLine(line);
  const std::string second = server.HandleLine(line);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.cache.hits, 1);
  EXPECT_EQ(stats.cache.entries, 1);
}

TEST(ServeServer, RequestFingerprintIsStable) {
  // Golden cache key for (GNMT-16, Config-A, 2 servers, gbs 64, defaults).
  // If this changes, cached plans from previous builds no longer match —
  // bump deliberately, with the fingerprint version strings.
  Server server;
  const std::string response = server.HandleLine(PlanLine("a", "GNMT-16", 'A', 2, 64));
  EXPECT_NE(response.find("\"fingerprint\":\"fp:adaabb71f2e927ee\""), std::string::npos)
      << response;
}

TEST(ServeServer, PlanAffectingOptionsChangeTheFingerprint) {
  model::ModelProfile model = model::ModelByName("GNMT-16");
  topo::Cluster cluster = topo::MakeConfigA(2);
  planner::PlannerOptions base;
  base.global_batch_size = 64;
  const std::uint64_t fp0 = FingerprintPlanRequest(model, cluster, 64, base);

  planner::PlannerOptions capped = base;
  capped.latency.memory_cap = 2_GiB;
  EXPECT_NE(FingerprintPlanRequest(model, cluster, 64, capped), fp0);

  planner::PlannerOptions gpipe = base;
  gpipe.latency.schedule_kind = runtime::ScheduleKind::kGPipe;
  EXPECT_NE(FingerprintPlanRequest(model, cluster, 64, gpipe), fp0);

  // Execution-only knobs (thread counts) must NOT change the key: the plan
  // is byte-identical at every thread count.
  planner::PlannerOptions threaded = base;
  threaded.num_threads = 8;
  EXPECT_EQ(FingerprintPlanRequest(model, cluster, 64, threaded), fp0);
  // Nor the search budget: a search that fits returns the same plan at any
  // budget.
  planner::PlannerOptions budgeted = base;
  budgeted.max_subproblems = kMaxPlanSubproblems;
  EXPECT_EQ(FingerprintPlanRequest(model, cluster, 64, budgeted), fp0);
}

TEST(ServeServer, BadRequestsNeverKillTheServer) {
  Server server;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{\"kind\":\"plan\",\"model\"", "parse_error"},
      {"{\"kind\":\"warp\"}", "bad_request"},
      // Planner threads are the server's business, not the client's.
      {PlanLine("t", "GNMT-16", 'A', 2, 64, ",\"planner_threads\":64"), "bad_request"},
      {PlanLine("m", "NoSuchModel", 'A', 2, 64), "unknown_model"},
      {PlanLine("c", "GNMT-16", 'A', 2, 64, ",\"memory_cap\":\"1MiB\""), "infeasible"},
  };
  for (const auto& [line, code] : cases) {
    const std::string response = server.HandleLine(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
    EXPECT_NE(response.find("\"code\":\"" + code + "\""), std::string::npos) << response;
  }
  EXPECT_EQ(server.Stats().errors, static_cast<std::int64_t>(cases.size()));
  // The daemon still answers normal requests afterwards.
  EXPECT_NE(server.HandleLine(PlanLine("ok", "GNMT-16", 'A', 2, 64)).find("\"ok\":true"),
            std::string::npos);
}

TEST(ServeServer, DeeplyNestedLineIsAParseErrorNotACrash) {
  // A million open brackets would recurse an unbounded parser far past the
  // default stack; the depth limit turns the line into a structured error.
  Server server;
  const std::string response = server.HandleLine(std::string(1'000'000, '['));
  EXPECT_NE(response.find("\"code\":\"parse_error\""), std::string::npos) << response;
  EXPECT_NE(server.HandleLine(PlanLine("ok", "GNMT-16", 'A', 2, 64)).find("\"ok\":true"),
            std::string::npos);
}

/// This process's peak resident set (VmHWM) in MiB, 0 when unreadable.
long PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6)) / 1024;
  }
  return 0;
}

// GNMT-16 on 16 Config-A servers (128 devices): uncapped, this search runs
// for minutes and was once OOM-killed at 16 GB. Under the serve budget it
// stops during enumeration, long before either.
const std::string kOversizedPlan = PlanLine("big", "GNMT-16", 'A', 16, 2048);

TEST(ServeServer, OversizedSearchIsTooLargeAndTheServerKeepsAnswering) {
  Server server;
  const auto start = std::chrono::steady_clock::now();
  const std::string response = server.HandleLine(kOversizedPlan);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"code\":\"too_large\""), std::string::npos) << response;
  EXPECT_NE(response.find("passes the budget of " + std::to_string(kMaxPlanSubproblems)),
            std::string::npos)
      << response;
  // Bounds loose enough for sanitizer builds on a busy host; the search
  // takes under half a second and ~60 MB in an optimized build.
  EXPECT_LT(seconds, 60.0);
  EXPECT_LT(PeakRssMiB(), 2048);

  // The same server answers the next request, with the usual plan.
  const std::string next = server.HandleLine(PlanLine("a", "GNMT-16", 'A', 2, 64));
  EXPECT_NE(next.find("\"ok\":true"), std::string::npos) << next;
  EXPECT_NE(next.find("\"fingerprint\":\"fp:adaabb71f2e927ee\""), std::string::npos) << next;
}

TEST(ServeServer, TooLargeIsNotCached) {
  Server server;
  const std::string first = server.HandleLine(kOversizedPlan);
  const std::string second = server.HandleLine(kOversizedPlan);
  EXPECT_NE(first.find("\"code\":\"too_large\""), std::string::npos) << first;
  EXPECT_EQ(first, second);
  // Both requests missed the cache and searched; neither left an entry.
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.entries, 0);
  EXPECT_EQ(stats.errors, 2);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = text.find('\n'); nl != std::string::npos;
       nl = text.find('\n', start)) {
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

void ExpectLineTooLongThenServing(const std::vector<std::string>& lines) {
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\":\"a\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"code\":\"bad_request\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("line too long"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("\"id\":\"b\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos) << lines[2];
}

/// Runs ServeConnection the way `dapple serve --stdio` does: requests come
/// through a pipe fed by a writer thread, responses go to a temporary file.
/// Returns the responses; `handled` gets ServeConnection's count.
std::string PipeRoundTrip(Server& server, const std::string& input, long* handled) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < input.size()) {
      const ssize_t n = ::write(fds[1], input.data() + off, input.size() - off);
      if (n < 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
  });
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  *handled = ServeConnection(fds[0], ::fileno(out), server);
  writer.join();
  ::close(fds[0]);
  std::rewind(out);
  std::string reply;
  char chunk[4096];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof(chunk), out)) > 0;) {
    reply.append(chunk, n);
  }
  std::fclose(out);
  return reply;
}

TEST(ServeServer, OverLongStdioLineIsOneBadRequest) {
  // The last request has no newline: EOF ends it.
  Server server;
  long handled = 0;
  const std::string reply =
      PipeRoundTrip(server,
                    PlanLine("a", "GNMT-16", 'A', 2, 64) + "\n" +
                        std::string(3 * kMaxLineBytes, 'x') + "\n" +
                        PlanLine("b", "GNMT-16", 'A', 2, 64),
                    &handled);
  EXPECT_EQ(handled, 3);
  ExpectLineTooLongThenServing(SplitLines(reply));
}

TEST(ServeServer, UnterminatedOverLongStdioLineIsOneBadRequest) {
  Server server;
  long handled = 0;
  const std::string reply = PipeRoundTrip(
      server, PlanLine("a", "GNMT-16", 'A', 2, 64) + "\n" + std::string(2 * kMaxLineBytes, 'x'),
      &handled);
  EXPECT_EQ(handled, 2);
  const std::vector<std::string> lines = SplitLines(reply);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"code\":\"bad_request\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("line too long"), std::string::npos) << lines[1];
}

TEST(ServeServer, ResponsesAreByteIdenticalAtEveryWorkerCount) {
  // A mixed workload: duplicates (cache races), distinct configs, every
  // request kind and some failures. The response vector must not depend on
  // the worker count.
  std::vector<std::string> lines;
  for (int round = 0; round < 2; ++round) {
    lines.push_back(PlanLine("p1", "GNMT-16", 'A', 2, 64));
    lines.push_back(PlanLine("p2", "GNMT-16", 'B', 2, 32));
    lines.push_back(PlanLine("p3", "VGG-19", 'A', 1, 32));
    lines.push_back(PlanLine("p4", "GNMT-16", 'A', 2, 64, ",\"schedule\":\"gpipe\""));
    lines.push_back("{\"kind\":\"simulate\",\"id\":\"s1\",\"model\":\"GNMT-16\","
                    "\"config\":\"A\",\"servers\":2,\"gbs\":64}");
    lines.push_back(PlanLine("bad", "NoSuchModel", 'A', 2, 64));
    lines.push_back("{broken");
  }

  ServerOptions serial;
  serial.workers = 1;
  Server one(serial);
  const std::vector<std::string> serial_responses = one.HandleBatch(lines);

  ServerOptions pooled;
  pooled.workers = 8;
  Server eight(pooled);
  const std::vector<std::string> pooled_responses = eight.HandleBatch(lines);

  ASSERT_EQ(serial_responses.size(), lines.size());
  ASSERT_EQ(pooled_responses.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(serial_responses[i], pooled_responses[i]) << "line " << i;
  }
}

TEST(ServeServer, SimulateSummarizesTheReportDevices) {
  // simulate's utilization and average peak are the means over the devices
  // that report lists — on V-Min, only the folded groups' devices, not every
  // device the plan names.
  Server server;
  const std::string request = R"("model":"GNMT-16","config":"C","servers":4,"gbs":64,)"
                              R"("schedule":"v-min"})";
  const JsonValue simulate = ParseJson(server.HandleLine(R"({"kind":"simulate",)" + request));
  const JsonValue report = ParseJson(server.HandleLine(R"({"kind":"report",)" + request));
  const std::vector<JsonValue>& devices = report.Get("report").Get("devices").AsArray();
  ASSERT_FALSE(devices.empty());
  EXPECT_LT(static_cast<std::int64_t>(devices.size()), simulate.Get("devices").AsInt());
  double utilization = 0.0;
  std::int64_t peak = 0;
  for (const JsonValue& d : devices) {
    utilization += d.Get("utilization").AsDouble();
    peak += d.Get("peak_memory").AsInt();
  }
  const auto n = static_cast<std::int64_t>(devices.size());
  EXPECT_NEAR(simulate.Get("utilization").AsDouble(), utilization / n, 1e-9);
  EXPECT_EQ(simulate.Get("avg_peak_memory").AsInt(), peak / n);
}

TEST(ServeServer, RecomputeAllSimulatesTheFlaggedPlanUnderItsCap) {
  // "recompute":"all" must reach the plan itself: every stage comes back
  // flagged, and the simulated iteration fits the cap the plan was made for.
  Server server;
  const JsonValue simulate = ParseJson(server.HandleLine(
      R"({"kind":"simulate","model":"GNMT-16","config":"B","servers":4,"gbs":256,)"
      R"("recompute":"all","memory_cap":"1.8GiB"})"));
  EXPECT_FALSE(simulate.Get("oom").AsBool());
  EXPECT_EQ(simulate.Get("recompute_stages").AsInt(), simulate.Get("stages").AsInt());
}

TEST(ServeServer, TinyCacheEvictsAndStillAnswers) {
  // Capacity N, N + 1 distinct plan requests cycled twice: an exact LRU
  // evicts each request's plan just before it comes round again, so every
  // request misses, yet every one still answers.
  constexpr int kCapacity = 3;
  ServerOptions options;
  options.cache_entries = kCapacity;
  Server server(options);
  const int distinct = kCapacity + 1;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < distinct; ++i) {
      const std::string response = server.HandleLine(PlanLine("e", "GNMT-16", 'A', 1, 8L << i));
      EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    }
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache.entries, kCapacity);
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.misses, 2 * distinct);
  EXPECT_EQ(stats.cache.evictions, 2 * distinct - kCapacity);
}

TEST(ServeServer, CacheHoldsExactlyItsCapacity) {
  for (const long capacity : {1L, 12L}) {
    SCOPED_TRACE(capacity);
    ServerOptions options;
    options.cache_entries = capacity;
    Server server(options);
    for (long i = 0; i <= capacity; ++i) {
      const std::string response = server.HandleLine(PlanLine("c", "GNMT-16", 'A', 1, 8 * (i + 1)));
      EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    }
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.cache_capacity, capacity);
    EXPECT_EQ(stats.cache.entries, capacity);
    EXPECT_EQ(stats.cache.evictions, 1);
    const JsonValue reported = ParseJson(server.HandleLine(R"({"kind":"stats"})"));
    EXPECT_EQ(reported.Get("cache").Get("capacity").AsInt(), capacity);
    EXPECT_EQ(reported.Get("cache").Get("entries").AsInt(), capacity);
  }
}

TEST(ServeServer, CacheCapacityBelowOneIsRefused) {
  ServerOptions options;
  options.cache_entries = 0;
  try {
    Server server(options);
    FAIL() << "a zero-entry plan cache was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cache_entries"), std::string::npos) << e.what();
  }
}

TEST(ServeServer, StatsRequestReportsCacheAndLatency) {
  Server server;
  server.HandleLine(PlanLine("a", "GNMT-16", 'A', 2, 64));
  server.HandleLine(PlanLine("b", "GNMT-16", 'A', 2, 64));
  const std::string response = server.HandleLine("{\"kind\":\"stats\",\"id\":\"s\"}");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.find("\"hits\":1"), std::string::npos) << response;
  EXPECT_NE(response.find("\"misses\":1"), std::string::npos) << response;
  EXPECT_NE(response.find("\"p99\""), std::string::npos);
}

// ----------------------------------------------------------- transport --

std::string UnixRoundTrip(const std::string& path, const std::string& payload) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // The server thread may still be between bind and listen; retry briefly.
  int rc = -1;
  for (int attempt = 0; attempt < 500; ++attempt) {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc == 0) break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(rc, 0) << "connect failed: " << std::strerror(errno);
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) reply.append(chunk, n);
  ::close(fd);
  return reply;
}

TEST(ServeTransport, UnixSocketServesOneConnection) {
  const std::string path =
      "/tmp/dapple_serve_test_" + std::to_string(::getpid()) + ".sock";
  Server server;
  long handled = 0;
  std::thread daemon(
      [&] { handled = ServeUnixSocket(path, server, /*max_connections=*/1); });

  const std::string reply = UnixRoundTrip(
      path, PlanLine("u1", "GNMT-16", 'A', 2, 64) + "\n" +
                PlanLine("u2", "GNMT-16", 'A', 2, 64) + "\n" + "{nope\n");
  daemon.join();

  EXPECT_EQ(handled, 3);
  const std::vector<std::string> lines = SplitLines(reply);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\":\"u1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(lines[0].substr(lines[0].find("\"plan\"")),
            lines[1].substr(lines[1].find("\"plan\"")));
  EXPECT_NE(lines[2].find("\"code\":\"parse_error\""), std::string::npos);
  EXPECT_EQ(server.Stats().cache.hits, 1);
}

TEST(ServeTransport, UnixSocketAnswersAnOverLongLineAndKeepsServing) {
  const std::string path =
      "/tmp/dapple_serve_test_long_" + std::to_string(::getpid()) + ".sock";
  Server server;
  long handled = 0;
  std::thread daemon(
      [&] { handled = ServeUnixSocket(path, server, /*max_connections=*/1); });
  // The over-long line spans many reads; the server answers it once and
  // drops the rest of it up to its newline.
  const std::string reply =
      UnixRoundTrip(path, PlanLine("a", "GNMT-16", 'A', 2, 64) + "\n" +
                              std::string(3 * kMaxLineBytes + 123, 'x') + "\n" +
                              PlanLine("b", "GNMT-16", 'A', 2, 64) + "\n");
  daemon.join();
  EXPECT_EQ(handled, 3);
  ExpectLineTooLongThenServing(SplitLines(reply));
}

TEST(ServeTransport, UnixSocketAnswersAnUnterminatedOverLongLine) {
  const std::string path =
      "/tmp/dapple_serve_test_eof_" + std::to_string(::getpid()) + ".sock";
  Server server;
  long handled = 0;
  std::thread daemon(
      [&] { handled = ServeUnixSocket(path, server, /*max_connections=*/1); });
  const std::string reply = UnixRoundTrip(
      path, PlanLine("a", "GNMT-16", 'A', 2, 64) + "\n" + std::string(2 * kMaxLineBytes, 'x'));
  daemon.join();
  EXPECT_EQ(handled, 2);
  const std::vector<std::string> lines = SplitLines(reply);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("line too long"), std::string::npos) << lines[1];
}

}  // namespace
}  // namespace dapple::serve
