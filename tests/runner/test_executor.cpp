// The pluggable execution substrate: the process pool must be
// indistinguishable — byte for byte — from the in-process thread pool, for
// any width, including across worker crashes.
//
// These tests run the fork-only worker mode (SweepOptions.worker_argv
// empty): children inherit the test binary's scenario registry and run
// worker_session directly, exercising the full handshake / job / record
// framing over real sockets and real processes. The exec'd `ngsim --worker`
// path is the same protocol and is covered by CI's --procs steps.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>

#include "obs/telemetry.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace bng::runner {
namespace {

/// A 2-point Bitcoin mini sweep, registered so process-pool workers can
/// rebuild it from its name.
Scenario make_exec_mini(const RunKnobs&) {
  Scenario s;
  s.name = "exec_mini";
  s.description = "process-pool unit-test sweep";
  s.seed_base = 540;
  s.base.num_nodes = 16;
  s.base.target_blocks = 4;
  s.base.drain_time = 20;
  s.base.params = chain::Params::bitcoin();
  s.base.params.max_block_size = 4000;
  Axis axis{"block_interval", {}};
  for (double interval : {8.0, 15.0}) {
    axis.values.push_back(AxisValue{std::to_string(interval) + "s", interval,
                                    [interval](sim::ExperimentConfig& cfg) {
                                      cfg.params.block_interval = interval;
                                    }});
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment&, NamedValues& v) {
    // Hooks are lambdas and cannot cross the pipe; they survive because the
    // worker re-instantiates the scenario from the registry. This marker
    // proves the worker-side hook actually ran.
    v.emplace_back("hook_ran", 1.0);
  };
  return s;
}

Scenario registered_mini() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_scenario("exec_mini", "process-pool unit-test sweep", make_exec_mini);
  });
  auto s = make_scenario("exec_mini", RunKnobs{16, 4});
  EXPECT_TRUE(s.has_value());
  return *s;
}

SweepOptions thread_options(std::uint32_t seeds, std::uint32_t jobs) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.jobs = jobs;
  return opt;
}

SweepOptions proc_options(std::uint32_t seeds, std::uint32_t procs) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.procs = procs;
  return opt;
}

/// The three emitted artifacts, concatenated: if these match, every digest,
/// metric bit, and aggregate matched.
std::string artifacts(const SweepResult& r) {
  return to_json(r) + "\n--\n" + aggregate_csv(r) + "\n--\n" + seeds_csv(r);
}

TEST(ProcessPool, BitIdenticalToThreadsAtEveryWidth) {
  const Scenario s = registered_mini();
  const std::string serial = artifacts(run_sweep(s, thread_options(4, 1)));
  EXPECT_EQ(serial, artifacts(run_sweep(s, thread_options(4, 4))));
  for (std::uint32_t procs : {1u, 2u, 4u}) {
    EXPECT_EQ(serial, artifacts(run_sweep(s, proc_options(4, procs))))
        << "--procs " << procs << " diverged from --jobs 1";
  }
}

TEST(ProcessPool, SigkilledWorkerIsRedispatchedBitIdentically) {
  // Acceptance: a worker SIGKILLed mid-sweep is detected (socket EOF), its
  // in-flight job re-dispatched, a replacement spawned, and the final
  // output stays bit-identical to the serial run.
  const Scenario s = registered_mini();
  const std::string serial = artifacts(run_sweep(s, thread_options(6, 1)));

  SweepOptions killer = proc_options(6, 2);
  killer.test_kill_worker0_after_jobs = 1;  // dies when handed its 2nd job
  EXPECT_EQ(serial, artifacts(run_sweep(s, killer)));
}

TEST(ProcessPool, InlineScenarioTextShipsToWorkers) {
  // A scenario-file scenario ships as raw text and is re-parsed by the
  // worker — no shared filesystem, no registry entry.
  const std::string text =
      "name = inline_mini\n"
      "seed_base = 41\n"
      "base.protocol = bitcoin\n"
      "base.block_interval = 9\n"
      "base.max_block_size = 4000\n"
      "axis.nodes = 12, 16\n";
  const Scenario s = load_scenario_string(text, "<test>", RunKnobs{16, 3});
  ASSERT_TRUE(s.source.has_value());
  EXPECT_EQ(s.source->kind, ScenarioSource::Kind::kInline);
  EXPECT_EQ(artifacts(run_sweep(s, thread_options(3, 2))),
            artifacts(run_sweep(s, proc_options(3, 2))));
}

TEST(ProcessPool, ProgrammaticScenarioIsRejectedUpFront) {
  Scenario s = registered_mini();
  s.source.reset();  // hand-built scenarios have no shippable form
  EXPECT_THROW(run_sweep(s, proc_options(2, 2)), std::invalid_argument);
}

TEST(ProcessPool, WorkerJobFailurePropagates) {
  // A job that throws inside the worker comes back as an error frame and
  // fails the sweep with the original message, after the pool quiesces.
  const std::string text =
      "name = bad\n"
      "base.adversary = selfish\n"
      "base.adversary_node = 99\n";  // out of range -> Experiment::build throws
  const Scenario s = load_scenario_string(text, "<test>", RunKnobs{16, 2});
  try {
    run_sweep(s, proc_options(1, 1));
    FAIL() << "expected the worker's failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos) << e.what();
  }
}

TEST(ProcessPool, AttackScenarioMatchesThreadsIncludingAttackerReports) {
  // Adversary runs carry the structured attacker report through the codec;
  // the JSON artifact embeds it, so byte-equality covers that path too.
  auto s = make_scenario("attack_smoke", RunKnobs{24, 8});
  ASSERT_TRUE(s.has_value());
  const auto threads = run_sweep(*s, thread_options(2, 2));
  const auto procs = run_sweep(*s, proc_options(2, 4));
  ASSERT_FALSE(threads.points.empty());
  ASSERT_TRUE(threads.points[0].seeds[0].attacker.has_value());
  EXPECT_EQ(artifacts(threads), artifacts(procs));
}

/// Pids of this process's children, read from /proc/<pid>/stat.
std::vector<pid_t> child_pids() {
  std::vector<pid_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    char state = 0;
    pid_t ppid = 0;
    if (rest >> state >> ppid && ppid == ::getpid() && state != 'Z')
      out.push_back(static_cast<pid_t>(std::stol(name)));
  }
  return out;
}

TEST(ProcessPool, StoppedWorkerIsDetectedByHeartbeatSilence) {
  // A SIGSTOPped worker keeps its socketpair open, so no EOF ever comes:
  // only its silent heartbeat can tell the dispatcher that it is gone. Its
  // job must be re-dispatched and the stopped child reaped, with the output
  // byte-identical to the serial run.
  auto s = make_scenario("fig7", RunKnobs{200, 10});
  ASSERT_TRUE(s.has_value());
  const std::string serial = artifacts(run_sweep(*s, thread_options(4, 1)));

  SweepOptions opt = proc_options(4, 2);
  opt.fleet.heartbeat_ms = 50;
  opt.fleet.heartbeat_timeout_ms = 400;
  obs::SweepTelemetry telemetry;
  opt.telemetry = &telemetry;
  auto sweep = std::async(std::launch::async, [&] { return run_sweep(*s, opt); });
  while (telemetry.records_done() == 0 &&
         sweep.wait_for(std::chrono::milliseconds(1)) == std::future_status::timeout) {
  }
  const std::vector<pid_t> children = child_pids();
  EXPECT_FALSE(children.empty());
  if (!children.empty()) ::kill(children.front(), SIGSTOP);

  // Bound: the heartbeat timeout plus the sweep itself, with room for a
  // slow (sanitizer) build. A hang is turned into a clean failure: the
  // interrupt flag stops the dispatch loop, and killing the stopped child
  // frees a dispatcher blocked reaping it.
  const bool finished =
      sweep.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  if (!finished) {
    sweep_interrupt_flag().store(true, std::memory_order_relaxed);
    if (!children.empty()) ::kill(children.front(), SIGKILL);
  }
  std::string got;
  try {
    got = artifacts(sweep.get());
  } catch (const SweepInterrupted&) {
  }
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);
  ASSERT_TRUE(finished) << "the sweep hung on a stopped worker";
  EXPECT_EQ(serial, got);

  const auto workers = telemetry.workers();
  EXPECT_TRUE(std::any_of(workers.begin(), workers.end(), [](const auto& w) {
    return !w.alive || w.reconnects > 0;
  })) << "no worker was declared dead";
  for (const pid_t pid : children)
    EXPECT_NE(::kill(pid, 0), 0) << "worker " << pid << " was not reaped";
}

TEST(ProcessPool, HungWorkerIsCaughtByTheJobDeadline) {
  // Worker 0 computes forever on its first job while its heartbeat keeps
  // beating: only the per-job deadline can tell it from a slow job.
  // The job reruns on the survivor, which delivers every record.
  const Scenario s = registered_mini();
  const std::string serial = artifacts(run_sweep(s, thread_options(3, 1)));
  SweepOptions opt = proc_options(3, 2);
  opt.fleet.heartbeat_ms = 50;
  opt.fleet.heartbeat_timeout_ms = 800;  // heartbeats keep flowing: never trips
  opt.fleet.job_deadline_ms = 300;
  opt.fleet.reconnect_base_ms = 25;
  opt.fleet.max_reconnects = 1;
  opt.test_hang_host0_after_jobs = 0;
  obs::SweepTelemetry telemetry;
  opt.telemetry = &telemetry;
  const SweepResult result = run_sweep(s, opt);
  EXPECT_EQ(serial, artifacts(result));

  const auto workers = telemetry.workers();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].records, 0u);
  EXPECT_GT(workers[1].heartbeats, 0u) << "local workers must heartbeat";
  EXPECT_EQ(workers[1].records, result.points.size() * 3);
}

TEST(Dispatcher, HeartbeatMustBeAtLeastOneAndBelowTheTimeout) {
  // heartbeat_ms 0 means "never beat", and a beat no more frequent than the
  // timeout leaves healthy workers silent past it: either way, any job
  // longer than the timeout would kill its worker. Rejected up front.
  SweepOptions opt = proc_options(2, 2);
  for (const auto& [beat, timeout] :
       {std::pair{0u, 10000u}, std::pair{400u, 400u}, std::pair{500u, 400u}}) {
    opt.fleet.heartbeat_ms = beat;
    opt.fleet.heartbeat_timeout_ms = timeout;
    try {
      make_dispatcher(opt);
      ADD_FAILURE() << "accepted heartbeat_ms " << beat << " with timeout " << timeout;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("heartbeat_ms"), std::string::npos) << what;
      EXPECT_NE(what.find("heartbeat_timeout_ms"), std::string::npos) << what;
    }
    EXPECT_THROW(run_sweep(registered_mini(), opt), std::invalid_argument);
  }
  opt.fleet.heartbeat_ms = 1;
  opt.fleet.heartbeat_timeout_ms = 2;
  EXPECT_NO_THROW(make_dispatcher(opt));
}

}  // namespace
}  // namespace bng::runner
