// The TCP fleet dispatcher: `ngsim --serve` workers driven over real
// sockets, with every fault the robustness layer claims to survive injected
// for real — SIGKILL mid-job, a stopped (silent) worker, a severed
// connection, a hung-but-heartbeating worker, a dispatcher death resumed
// from the journal. The acceptance bar for each is the same: the final
// artifacts are byte-identical to a serial in-process run.
//
// Workers are fork()ed children of the test binary running serve_loop
// directly (no exec), so they inherit the test's scenario registry; the
// exec'd `ngsim --serve` path is the same code and is covered by CI's fleet
// smoke job.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>

#include "obs/telemetry.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/journal.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "runner/worker_protocol.hpp"

namespace bng::runner {
namespace {

Scenario make_fleet_mini(const RunKnobs&) {
  Scenario s;
  s.name = "fleet_mini";
  s.description = "tcp-fleet unit-test sweep";
  s.seed_base = 820;
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
  return s;
}

Scenario registered_fleet_mini() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_scenario("fleet_mini", "tcp-fleet unit-test sweep", make_fleet_mini);
  });
  auto s = make_scenario("fleet_mini", RunKnobs{16, 4});
  EXPECT_TRUE(s.has_value());
  return *s;
}

std::string artifacts(const SweepResult& r) {
  return to_json(r) + "\n--\n" + aggregate_csv(r) + "\n--\n" + seeds_csv(r);
}

/// A forked child running serve_loop on a kernel-assigned port. The parent
/// closes its copy of the listen fd, so the port dies with the child.
struct ServeWorker {
  pid_t pid = -1;
  std::uint16_t port = 0;

  ServeWorker() {
    int listen_fd = make_listen_socket(0, port);
    pid = ::fork();
    if (pid == 0) {
      serve_loop(listen_fd);
      ::_exit(0);
    }
    ::close(listen_fd);
  }

  ~ServeWorker() { reap(); }

  void reap() {
    if (pid <= 0) return;
    ::kill(pid, SIGCONT);  // a SIGSTOPped child cannot be waited on its SIGKILL
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }

  std::string endpoint() const { return "127.0.0.1:" + std::to_string(port); }
};

/// Fast-failure tuning: real sweeps wait seconds for a host to come back,
/// tests wait tens of milliseconds.
FleetTuning test_tuning() {
  FleetTuning t;
  t.connect_timeout_ms = 2000;
  t.heartbeat_ms = 50;
  t.heartbeat_timeout_ms = 2000;
  t.reconnect_base_ms = 25;
  t.reconnect_cap_ms = 100;
  t.max_reconnects = 2;
  return t;
}

SweepOptions fleet_options(std::uint32_t seeds, std::vector<std::string> hosts,
                           FleetTuning tuning) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.hosts = std::move(hosts);
  opt.fleet = tuning;
  return opt;
}

SweepOptions serial_options(std::uint32_t seeds) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.jobs = 1;
  return opt;
}

TEST(TcpFleet, BitIdenticalToSerialRun) {
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  ServeWorker a, b;
  EXPECT_EQ(serial, artifacts(run_sweep(
                        s, fleet_options(4, {a.endpoint(), b.endpoint()},
                                         test_tuning()))));
}

TEST(TcpFleet, SigkilledWorkerMidSweepIsRedispatchedBitIdentically) {
  // host0 SIGKILLs itself when handed its 2nd job: the dispatcher sees the
  // connection drop, re-queues the in-flight job, fails to reconnect (the
  // process is gone), abandons the host, and the survivor finishes.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  ServeWorker a, b;
  SweepOptions opt = fleet_options(4, {a.endpoint(), b.endpoint()}, test_tuning());
  opt.test_kill_worker0_after_jobs = 1;
  EXPECT_EQ(serial, artifacts(run_sweep(s, opt)));
}

TEST(TcpFleet, StoppedWorkerIsDetectedByHeartbeatSilence) {
  // SIGSTOP freezes host0 before the sweep: its kernel still accepts the
  // TCP handshake, but no heartbeat ever arrives — the liveness timeout,
  // not an EOF, is what declares it dead.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(3)));
  ServeWorker a, b;
  ::kill(a.pid, SIGSTOP);
  FleetTuning tuning = test_tuning();
  tuning.heartbeat_timeout_ms = 400;
  tuning.max_reconnects = 1;
  EXPECT_EQ(serial, artifacts(run_sweep(
                        s, fleet_options(3, {a.endpoint(), b.endpoint()}, tuning))));
}

TEST(TcpFleet, SeveredConnectionHealsThroughReconnect) {
  // The dispatcher cuts host0's socket after its first record (a stand-in
  // for a mid-sweep network partition); the worker drops back to its accept
  // loop and the exponential-backoff reconnect restores it.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  ServeWorker a, b;
  SweepOptions opt = fleet_options(4, {a.endpoint(), b.endpoint()}, test_tuning());
  opt.test_sever_host0_after_records = 1;
  EXPECT_EQ(serial, artifacts(run_sweep(s, opt)));
}

TEST(TcpFleet, HungWorkerIsCaughtByTheJobDeadlineNotTheHeartbeat) {
  // host0 computes forever on its first job *while heartbeating* — only the
  // per-job deadline can tell this apart from a slow job. The job reruns on
  // the survivor; the hung host is eventually abandoned.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(3)));
  ServeWorker a, b;
  FleetTuning tuning = test_tuning();
  tuning.heartbeat_timeout_ms = 800;  // heartbeats keep flowing: never trips
  tuning.job_deadline_ms = 300;
  tuning.max_reconnects = 1;
  SweepOptions opt = fleet_options(3, {a.endpoint(), b.endpoint()}, tuning);
  opt.test_hang_host0_after_jobs = 0;
  EXPECT_EQ(serial, artifacts(run_sweep(s, opt)));
}

TEST(TcpFleet, JobExhaustingItsAttemptCapFailsTheSweepWithItsIdentity) {
  // A supervisor respawns the worker every time the kill hook SIGKILLs it,
  // so the same doomed job keeps finding a fresh worker to crash. After
  // max_job_attempts the sweep must fail naming the job — not hang waiting
  // for a record that can never arrive.
  const Scenario s = registered_fleet_mini();  // before the fork: workers
                                               // inherit the registration
  std::uint16_t port = 0;
  int listen_fd = make_listen_socket(0, port);
  const pid_t supervisor = ::fork();
  if (supervisor == 0) {
    ::setpgid(0, 0);
    for (;;) {
      const pid_t child = ::fork();
      if (child == 0) {
        serve_loop(listen_fd);
        ::_exit(0);
      }
      ::waitpid(child, nullptr, 0);
    }
  }
  ::setpgid(supervisor, supervisor);
  ::close(listen_fd);

  FleetTuning tuning = test_tuning();
  tuning.max_reconnects = 10;  // the host always comes back ...
  SweepOptions opt =
      fleet_options(2, {"127.0.0.1:" + std::to_string(port)}, tuning);
  opt.test_kill_worker0_after_jobs = 0;  // ... and always dies on its 1st job
  try {
    run_sweep(s, opt);
    FAIL() << "expected the attempt cap to fail the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("giving up"), std::string::npos) << what;
    EXPECT_NE(what.find("point"), std::string::npos) << what;
    EXPECT_NE(what.find("seed"), std::string::npos) << what;
  }

  ::kill(-supervisor, SIGKILL);
  ::waitpid(supervisor, nullptr, 0);
}

TEST(TcpFleet, AllWorkersLostFailsFastInsteadOfHanging) {
  const Scenario s = registered_fleet_mini();
  ServeWorker a;
  FleetTuning tuning = test_tuning();
  tuning.max_reconnects = 0;  // one life only
  SweepOptions opt = fleet_options(2, {a.endpoint()}, tuning);
  opt.test_kill_worker0_after_jobs = 0;
  try {
    run_sweep(s, opt);
    FAIL() << "expected a no-live-workers failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no live workers"), std::string::npos)
        << e.what();
  }
}

TEST(TcpFleet, ZeroReachableHostsFailsFastNamingEachEndpoint) {
  // Nothing is listening on either endpoint: the sweep must fail during the
  // initial connect pass — before any dispatch state exists — and the error
  // must name every endpoint with its connect errno, not just "no workers".
  const Scenario s = registered_fleet_mini();
  FleetTuning tuning = test_tuning();
  tuning.connect_timeout_ms = 500;
  try {
    run_sweep(s, fleet_options(2, {"127.0.0.1:1", "127.0.0.1:2"}, tuning));
    FAIL() << "expected a no-reachable-endpoint failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no --hosts endpoint is reachable"), std::string::npos)
        << what;
    EXPECT_NE(what.find("127.0.0.1:1"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1:2"), std::string::npos) << what;
    EXPECT_NE(what.find("refused"), std::string::npos) << what;  // errno text
  }
}

TEST(TcpFleet, TelemetryAccountsForEveryRecordAndWorker) {
  // The dispatcher's telemetry is bookkeeping over the same record stream the
  // artifacts are built from, so its totals must balance exactly: every job
  // delivered, every record attributed to the worker that computed it.
  const Scenario s = registered_fleet_mini();
  ServeWorker a, b;
  SweepOptions opt =
      fleet_options(4, {a.endpoint(), b.endpoint()}, test_tuning());
  obs::SweepTelemetry telemetry;
  opt.telemetry = &telemetry;
  const SweepResult result = run_sweep(s, opt);

  const std::size_t n_jobs = result.points.size() * 4;
  EXPECT_EQ(telemetry.total_jobs(), n_jobs);
  EXPECT_EQ(telemetry.records_done(), n_jobs);

  const auto workers = telemetry.workers();
  ASSERT_EQ(workers.size(), 2u);
  std::uint64_t attributed = 0;
  for (const auto& w : workers) {
    EXPECT_TRUE(w.alive) << w.endpoint;
    EXPECT_FALSE(w.abandoned) << w.endpoint;
    EXPECT_EQ(w.inflight, 0u) << w.endpoint;
    attributed += w.records;
  }
  EXPECT_EQ(attributed, n_jobs);

  const std::string json = telemetry.to_json(s.name, /*wall_s=*/1.0);
  EXPECT_NE(json.find("\"workers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"records_done\": " + std::to_string(n_jobs)),
            std::string::npos)
      << json;
}

TEST(TcpFleet, DispatcherDeathIsResumedFromTheJournalBitIdentically) {
  // The dispatcher "dies" (deterministic stand-in: the interrupt hook fires
  // after 3 records, unwinding exactly like SIGTERM) mid-sweep with a
  // journal attached. The workers outlive it in their accept loops; a new
  // dispatcher resumes from the journal, re-dispatches only the holes, and
  // the artifacts come out byte-identical.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bng_fleet_resume.journal").string();
  std::remove(path.c_str());

  ServeWorker a, b;
  SweepOptions opt = fleet_options(4, {a.endpoint(), b.endpoint()}, test_tuning());
  opt.journal_path = path;
  opt.test_interrupt_after_records = 3;
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);
  EXPECT_THROW(run_sweep(s, opt), SweepInterrupted);
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);

  const JournalContents partial = read_journal(path);
  EXPECT_GE(partial.records.size(), 3u);  // everything acknowledged got flushed
  EXPECT_LT(partial.records.size(), 8u);

  SweepOptions resume = fleet_options(4, {a.endpoint(), b.endpoint()}, test_tuning());
  resume.journal_path = path;
  resume.resume = true;
  EXPECT_EQ(serial, artifacts(run_sweep(s, resume)));
  std::remove(path.c_str());
}

TEST(TcpFleet, ProgrammaticScenarioIsRejectedUpFront) {
  Scenario s = registered_fleet_mini();
  s.source.reset();
  EXPECT_THROW(
      run_sweep(s, fleet_options(2, {"127.0.0.1:9"}, test_tuning())),
      std::invalid_argument);
}

}  // namespace
}  // namespace bng::runner
