// Tests for the serve subsystem: the JSON value parser, the request
// protocol (malformed input must become structured errors, never a crash),
// the fingerprint-keyed plan cache, worker-count response invariance and
// the Unix-socket transport.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
      R"("max_stages":4,"planner_threads":2})");
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
  EXPECT_EQ(r.planner_threads, 2);
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
  EXPECT_NE(response.find("\"fingerprint\":\"fp:7598bf6c60fdd633\""), std::string::npos)
      << response;
}

TEST(ServeServer, PlanAffectingOptionsChangeTheFingerprint) {
  model::ModelProfile model = model::ModelByName("GNMT-16");
  topo::Cluster cluster = topo::MakeConfigA(2);
  planner::PlannerOptions base;
  base.global_batch_size = 64;
  const std::uint64_t fp0 = FingerprintPlanRequest(model, cluster, 64, base);

  planner::PlannerOptions capped = base;
  capped.memory_cap = 2_GiB;
  EXPECT_NE(FingerprintPlanRequest(model, cluster, 64, capped), fp0);

  planner::PlannerOptions gpipe = base;
  gpipe.latency.schedule_kind = runtime::ScheduleKind::kGPipe;
  EXPECT_NE(FingerprintPlanRequest(model, cluster, 64, gpipe), fp0);

  // Execution-only knobs (thread counts, cache tuning) must NOT change the
  // key: the plan is byte-identical at every thread count.
  planner::PlannerOptions threaded = base;
  threaded.num_threads = 8;
  threaded.cache_shards = 4;
  threaded.cache_entries_per_shard = 128;
  EXPECT_EQ(FingerprintPlanRequest(model, cluster, 64, threaded), fp0);
}

TEST(ServeServer, BadRequestsNeverKillTheServer) {
  Server server;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{\"kind\":\"plan\",\"model\"", "parse_error"},
      {"{\"kind\":\"warp\"}", "bad_request"},
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

TEST(ServeServer, TinyCacheEvictsAndStillAnswers) {
  ServerOptions options;
  options.cache_entries = 2;  // capacity 1 per shard after the split
  options.cache_shards = 2;
  Server server(options);
  // More distinct plan requests than cache entries, twice over.
  const std::vector<std::string> models = {"GNMT-16", "VGG-19", "BERT-48"};
  for (int round = 0; round < 2; ++round) {
    for (const std::string& m : models) {
      const std::string response = server.HandleLine(PlanLine("e", m, 'A', 2, 32));
      EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    }
  }
  const ServerStats stats = server.Stats();
  EXPECT_LE(stats.cache.entries, 2);
  EXPECT_GT(stats.cache.evictions, 0);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 6);
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
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = reply.find('\n'); nl != std::string::npos;
       nl = reply.find('\n', start)) {
    lines.push_back(reply.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\":\"u1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(lines[0].substr(lines[0].find("\"plan\"")),
            lines[1].substr(lines[1].find("\"plan\"")));
  EXPECT_NE(lines[2].find("\"code\":\"parse_error\""), std::string::npos);
  EXPECT_EQ(server.Stats().cache.hits, 1);
}

}  // namespace
}  // namespace dapple::serve
