// Executor: the dispatch substrate under the sweep engine.
//
// run_sweep expands a scenario into (point × seed) jobs and hands them to an
// Executor; the executor runs every job and streams back one RunRecord per
// job. There are two:
//
//  * the thread pool (`--jobs`) — in-process worker threads;
//  * the dispatcher (`--procs`, `--hosts`) — worker processes speaking the
//    protocol of runner/worker_protocol.hpp, one link each. A link is a
//    socketpair to a child the dispatcher spawns (`--procs`: fork, then exec
//    `ngsim --worker` or run the session in the forked child) or a TCP
//    connection to an `ngsim --serve` worker (`--hosts`). Only opening and
//    closing a link know which; liveness and re-dispatch treat both alike
//    (see make_dispatcher).
//
// Both are pure functions of (scenario, points): records are delivered in
// arbitrary order but carry their own (point, ordinal) identity, and the
// caller merges them into deterministic slots — so any executor at any
// width, through any worker failure it survives, yields bit-identical
// sweep output.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/record.hpp"
#include "runner/scenario.hpp"

namespace bng::obs {
class SweepTelemetry;
class TraceRing;
}

namespace bng::runner {

/// What an executor needs to run a sweep. `points` must be expand(scenario)
/// — dispatcher workers re-expand from scenario.source and the two grids
/// must agree.
struct ExecutionPlan {
  const Scenario& scenario;
  const std::vector<SweepPoint>& points;
  std::uint32_t seeds = 1;
  bool share_workload = true;
  /// Jobs already completed in an earlier (crashed, resumed) run, indexed by
  /// point * seeds + ordinal — recovered from a journal. Null or empty:
  /// nothing done. Executors skip these without running or delivering them.
  const std::vector<std::uint8_t>* done = nullptr;
  /// Decision-trace categories (obs/trace_ring.hpp bit mask). 0 (default):
  /// tracing fully disabled — no ring is allocated and run_job receives
  /// null. Non-zero is only supported by the in-process thread executor;
  /// the dispatcher rejects it (the rings would live in other processes).
  std::uint32_t trace_mask = 0;
  /// Called once per traced job, after its record is delivered, with the
  /// job's ring (drained after the call returns). May run on worker threads
  /// concurrently — the sink synchronizes its own output.
  std::function<void(std::uint32_t point, std::uint32_t ordinal,
                     const obs::TraceRing& ring)>
      trace_sink;
  /// Optional sweep telemetry. The in-process thread executor feeds it each
  /// job's executed-event count (for the events/sec rate in --progress and
  /// --stats-json); the dispatcher keeps its per-worker table.
  obs::SweepTelemetry* telemetry = nullptr;
};

/// Whether the plan says this job already has its record (resume).
inline bool plan_job_done(const ExecutionPlan& plan, std::size_t job) {
  return plan.done != nullptr && job < plan.done->size() && (*plan.done)[job] != 0;
}

/// Cooperative cancellation for a sweep in flight. A signal handler (ngsim's
/// SIGINT/SIGTERM) or a test sets the flag; every executor polls it between
/// dispatches and aborts by throwing SweepInterrupted after quiescing its
/// workers — so RAII up the stack (the resume journal above all) flushes
/// cleanly instead of the process dying with completed records in memory.
std::atomic<bool>& sweep_interrupt_flag();

struct SweepInterrupted : std::runtime_error {
  SweepInterrupted() : std::runtime_error("sweep interrupted") {}
};

/// Throw SweepInterrupted if the flag is set (executor dispatch loops call
/// this once per iteration).
void throw_if_interrupted();

/// Receives each finished record exactly once, possibly from worker threads
/// (never concurrently for the same job; jobs write disjoint slots).
using RecordSink = std::function<void(RunRecord)>;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Run every (point × seed) job, delivering each record through `sink`.
  /// Returns the parallel width actually used (threads or processes).
  /// Throws (after quiescing its workers) if any job fails.
  virtual std::uint32_t run(const ExecutionPlan& plan, const RecordSink& sink) = 0;
};

/// In-process pool of `jobs` worker threads (0 = hardware concurrency).
std::unique_ptr<Executor> make_thread_executor(std::uint32_t jobs);

struct SweepOptions;
struct FleetTuning;

/// The dispatcher over `options.hosts` (TCP links) or, when that is empty,
/// min(max(options.procs, 1), pending jobs) local worker processes (exec'ing
/// `options.worker_argv`, or forked without exec when it is empty). Per
/// link, with `options.fleet` tuning:
///
///   * workers heartbeat; one silent past heartbeat_timeout_ms is dead
///     (crashed, SIGSTOPped, machine gone) and its job is re-dispatched;
///   * a job in flight past job_deadline_ms marks its worker hung, not dead;
///     the link is closed and the job re-dispatched;
///   * once the queue is dry, a job in flight past straggler_after_ms is
///     duplicated onto an idle worker; the losing copy's record is dropped;
///   * a closed link is reopened (a TCP reconnect, a local respawn) with
///     exponential backoff, at most max_reconnects times in a row;
///   * a job that loses max_job_attempts workers fails the sweep naming its
///     point, ordinal and seed, and a sweep with no worker left and no
///     reopen pending fails instead of waiting.
///
/// Any surviving worker completes the sweep. Throws std::invalid_argument
/// if the tuning fails check_fleet_tuning. The telemetry of the plan it
/// runs, if any, gets one worker row per link.
std::unique_ptr<Executor> make_dispatcher(const SweepOptions& options);

/// Throw std::invalid_argument, naming both keys, unless
/// 1 <= heartbeat_ms < heartbeat_timeout_ms. Otherwise a healthy worker
/// goes silent for longer than the timeout (heartbeat_ms 0 means it never
/// beats) and any job that outlasts the timeout kills its worker.
void check_fleet_tuning(const FleetTuning& tuning);

/// Run one job. The shared pool may be null (the experiment then builds its
/// own workload). Pure function of its arguments — every executor and the
/// worker process funnel through this. `trace` (optional) receives the
/// experiment's decision trace; recording is observational, so the record —
/// digest included — is bit-identical with and without it.
RunRecord run_job(const Scenario& scenario, const SweepPoint& point,
                  std::uint32_t point_index, std::uint32_t ordinal,
                  std::shared_ptr<const sim::PrebuiltWorkload> pool,
                  obs::TraceRing* trace = nullptr,
                  std::uint64_t* events_executed = nullptr);

}  // namespace bng::runner
