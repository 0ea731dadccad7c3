// End-to-end CLI smoke tests: exercise `dapple zoo/plan/run` as a user
// would, including the plan-file round trip and chrome-trace export, and
// the `dapple_fuzz` argument handling.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

#ifndef DAPPLE_CLI_PATH
#define DAPPLE_CLI_PATH "./dapple"
#endif
#ifndef DAPPLE_FUZZ_PATH
#define DAPPLE_FUZZ_PATH "./dapple_fuzz"
#endif

/// Paths include the pid: ctest runs each discovered test as its own
/// process, concurrently, so a shared fixed path would be clobbered.
std::string TempPath(const std::string& tag) {
  return "/tmp/dapple_cli_test_" + std::to_string(getpid()) + "_" + tag;
}

std::string RunCli(const std::string& args, int* exit_code,
                   const char* binary = DAPPLE_CLI_PATH) {
  const std::string output_path = TempPath("out.txt");
  const std::string command =
      std::string(binary) + " " + args + " > " + output_path + " 2>&1";
  const int status = std::system(command.c_str());
  *exit_code = WEXITSTATUS(status);
  std::ifstream in(output_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::remove(output_path.c_str());
  return content;
}

TEST(Cli, ZooListsBenchmarkModels) {
  int code = 0;
  const std::string out = RunCli("zoo", &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("BERT-48"), std::string::npos);
  EXPECT_NE(out.find("AmoebaNet-36"), std::string::npos);
  EXPECT_NE(out.find("933.0M"), std::string::npos);
}

TEST(Cli, PlanSaveRunRoundTrip) {
  // The plan file carries what a run needs, per-stage recompute flags
  // included: --recompute=all flags every stage, and a run of the saved
  // file fits the cap it was planned under.
  const std::string plan_path = TempPath("roundtrip.plan");
  for (const auto& [job, plan_flags, expect] :
       {std::tuple{"GNMT-16 A 2 1024", "", "8 : 8"},
        std::tuple{"GNMT-16 B 4 256 --memory-cap 1.8GiB", " --recompute=all",
                   "3/3 stages recompute"}}) {
    int code = 0;
    const std::string plan_out =
        RunCli(std::string("plan ") + job + plan_flags + " --save " + plan_path, &code);
    EXPECT_EQ(code, 0);
    EXPECT_NE(plan_out.find(expect), std::string::npos) << plan_out;
    EXPECT_NE(plan_out.find("saved to"), std::string::npos);

    const std::string run_out = RunCli(std::string("run ") + job + " --plan " + plan_path, &code);
    EXPECT_EQ(code, 0);
    EXPECT_NE(run_out.find("speedup"), std::string::npos);
    EXPECT_NE(run_out.find("Stage"), std::string::npos);
    EXPECT_EQ(run_out.find("OOM"), std::string::npos) << run_out;
  }
  std::remove(plan_path.c_str());
}

TEST(Cli, RunWithTraceAndGantt) {
  const std::string trace_path = TempPath("trace.json");
  int code = 0;
  const std::string out = RunCli(
      "run BERT-48 B 2 8 --schedule gpipe --recompute --gantt --trace " + trace_path,
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("GPipe schedule + recompute"), std::string::npos);
  EXPECT_NE(out.find("R0 "), std::string::npos);  // gantt lane
  EXPECT_NE(out.find("chrome trace written to " + trace_path), std::string::npos) << out;
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::string content((std::istreambuf_iterator<char>(trace)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(Cli, FaultsComparesPoliciesAndWritesJson) {
  const std::string json_path = TempPath("faults.json");
  const std::string trace_path = TempPath("faults_trace.json");
  int code = 0;
  const std::string out = RunCli(
      "faults GNMT-16 B 2 8 --script-text \"slowdown server=1 start=1 mult=0.5\" "
      "--policy all --horizon 5 --json " + json_path + " --trace " + trace_path,
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("fault script"), std::string::npos);
  EXPECT_NE(out.find("stall"), std::string::npos);
  EXPECT_NE(out.find("checkpoint"), std::string::npos);
  EXPECT_NE(out.find("replan"), std::string::npos);
  // Each written file is named for what it holds.
  EXPECT_NE(out.find("report written to " + json_path), std::string::npos) << out;
  EXPECT_NE(out.find("chrome trace written to " + trace_path), std::string::npos) << out;
  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::string content((std::istreambuf_iterator<char>(json)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"policy\": \"replan\""), std::string::npos);
  EXPECT_NE(content.find("\"goodput\""), std::string::npos);
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  content.assign(std::istreambuf_iterator<char>(trace), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, FaultsRejectsBadScripts) {
  int code = 0;
  const std::string out =
      RunCli("faults GNMT-16 B 2 8 --script-text \"explode device=0 at=1\"", &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("unknown event kind"), std::string::npos);
}

TEST(Cli, BadUsageFails) {
  int code = 0;
  RunCli("", &code);
  EXPECT_NE(code, 0);
  RunCli("plan", &code);
  EXPECT_NE(code, 0);
  const std::string out = RunCli("run NoSuchModel A 2 8", &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("unknown benchmark model"), std::string::npos);
}

TEST(Cli, UnknownFlagIsDiagnosedPerSubcommand) {
  // Every subcommand shares the FlagParser, so each rejects a stray flag
  // with the same diagnostic and usage exit code.
  for (const char* command :
       {"plan GNMT-16 A 2 8 --frobnicate", "run GNMT-16 A 2 8 --frobnicate",
        "report GNMT-16 A 2 8 --frobnicate",
        "faults GNMT-16 A 2 8 --seed 1 --frobnicate", "serve --frobnicate"}) {
    int code = 0;
    const std::string out = RunCli(command, &code);
    EXPECT_EQ(code, 2) << command;
    EXPECT_NE(out.find("unknown flag --frobnicate"), std::string::npos) << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  }
}

TEST(Cli, MissingFlagValueIsDiagnosed) {
  int code = 0;
  std::string out = RunCli("plan GNMT-16 A 2 8 --save", &code);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("flag --save requires a value"), std::string::npos) << out;

  out = RunCli("run GNMT-16 A 2 8 --schedule", &code);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("flag --schedule requires a value"), std::string::npos) << out;

  out = RunCli("serve --workers", &code);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("flag --workers requires a value"), std::string::npos) << out;
}

TEST(Cli, BadIntegersAreUsageErrors) {
  // Every number, flag or positional, is a strict parse of the whole token
  // (integers unsigned, --horizon finite and > 0), and the config is
  // exactly one of A/B/C: a bad value never falls back to a default,
  // truncates to its first character or reaches the planner.
  std::vector<std::string> cases = {
      "plan GNMT-16 A 2 64 --planner-threads abc", "serve --tcp 99999",
      "report GNMT-16 B 2 64 --peak-vs-m 4,x,8", "scenario GNMT-16 B 2 64 --jobs abc",
      "plan GNMT-16 A abc 64", "run GNMT-16 A 2 0", "faults GNMT-16 A 2 8 --seed -1",
      "plan GNMT-16 Axyz 1 64", "plan GNMT-16 D 1 64", "plan GNMT-16 \"\" 1 64",
      // Zero counts mean nothing: rejected, never dropped or run as one.
      "report GNMT-16 A 1 64 --peak-vs-m 0", "report GNMT-16 A 1 64 --peak-vs-m 4,0,8",
      "faults GNMT-16 A 2 64 --seed 3 --checkpoint-period 0",
      "scenario GNMT-16 A 2 64 --jobs 0"};
  for (const char* horizon : {"abc", "nan", "inf", "1e309", "-5", "0"}) {
    cases.push_back(std::string("faults GNMT-16 B 2 8 --horizon ") + horizon);
    cases.push_back(std::string("scenario GNMT-16 A 1 64 --horizon ") + horizon);
  }
  for (const std::string& args : cases) {
    int code = 0;
    const std::string out = RunCli(args, &code);
    EXPECT_EQ(code, 2) << args << "\n" << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << args << "\n" << out;
  }
}

TEST(Cli, FailedFileWritesExitOne) {
  // A report or trace that cannot be written is an error, never a silent
  // "written" and exit 0: an unopenable path and a full device both fail.
  for (const char* args :
       {"report --fig3 --json /dev/full", "report --fig3 --json /no/such/dir/x.json",
        "run GNMT-16 B 2 8 --trace /dev/full", "run GNMT-16 B 2 8 --trace /no/such/dir/x.json",
        "faults GNMT-16 B 2 8 --script-text \"slowdown server=1 start=1 mult=0.5\" "
        "--policy stall --horizon 2 --trace /no/such/dir/x.json",
        "faults GNMT-16 B 2 8 --script-text \"slowdown server=1 start=1 mult=0.5\" "
        "--policy stall --horizon 2 --json /dev/full"}) {
    int code = 0;
    const std::string out = RunCli(args, &code);
    EXPECT_EQ(code, 1) << args << "\n" << out;
    EXPECT_EQ(out.find("written to"), std::string::npos) << args << "\n" << out;
    EXPECT_NE(out.find("cannot "), std::string::npos) << args << "\n" << out;
  }
}

TEST(Cli, ServeRefusesAnEmptyPlanCache) {
  int code = 0;
  const std::string out = RunCli("serve --stdio --cache-entries 0 < /dev/null", &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("--cache-entries must be at least 1"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST(Cli, ReportPrefilterFlagIsUnknown) {
  int code = 0;
  const std::string out = RunCli("report GNMT-16 B 2 64 --prefilter=auto", &code);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("unknown flag --prefilter=auto"), std::string::npos) << out;
}

TEST(Cli, FuzzRejectsBadArgumentsWithUsage) {
  // Every value is one strict unsigned parse of the whole token, and at most
  // one mode may be named — with or without --repro.
  for (const char* args :
       {"--faults --memory-cap --repro 3", "--repro 3 --iterations x", "--seed abc",
        "--repro abc", "--iterations 3x", "--threads abc", "--threads -1", "--iterations 0",
        "--seed 18446744073709551616", "--iterations", "--ranking"}) {
    int code = 0;
    const std::string out = RunCli(args, &code, DAPPLE_FUZZ_PATH);
    EXPECT_EQ(code, 2) << args << "\n" << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << args << "\n" << out;
  }
}

TEST(Cli, FuzzPrefilterFlagIsUnknown) {
  int code = 0;
  const std::string out = RunCli("--prefilter=off --iterations 1", &code, DAPPLE_FUZZ_PATH);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("unknown flag --prefilter=off"), std::string::npos) << out;
}

TEST(Cli, FuzzScenarioReproReplaysThePinnedSeed) {
  int code = 0;
  const std::string out = RunCli("--scenario --repro 39", &code, DAPPLE_FUZZ_PATH);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(out,
            "seed=39 model=8L cluster=fuzz-2x2(4) plan=1 : 2 churn=rolling policy=elastic-up "
            "horizon=12.7895 schedule=V-Half\n"
            "ok: 7 pipelines validated, 14 iterations, 2 preemptions, 2 rejoins, 2 scale-ups\n");
}

}  // namespace
