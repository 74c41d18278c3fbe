// Sweep engine: expands a scenario into (point × seed) jobs, hands them to
// an Executor (runner/executor.hpp), and folds the streamed RunRecords into
// per-point aggregates.
//
// Determinism: each job's RNG seed is a pure function of its identity
// (scenario seed_base, point index, seed ordinal), every record carries that
// identity and is merged into its own preallocated slot, and the shared tx
// pool is generated once per sweep point from seed-independent parameters —
// so results are bit-identical regardless of the executor, its width, or
// the order records arrive in. Each record carries an FNV-1a determinism
// digest as the witness.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/aggregate.hpp"
#include "runner/record.hpp"
#include "runner/scenario.hpp"

namespace bng::obs {
class SweepTelemetry;
}

namespace bng::runner {

/// Liveness and re-dispatch knobs of the dispatcher (make_dispatcher in
/// runner/executor.hpp), for `--procs` and `--hosts` workers alike.
struct FleetTuning {
  /// TCP connect timeout per `--hosts` endpoint (local links ignore it).
  std::uint32_t connect_timeout_ms = 5000;
  /// Interval workers are told to heartbeat at (handshake field).
  std::uint32_t heartbeat_ms = 1000;
  /// A worker silent (no frames, no heartbeats) this long is dead.
  std::uint32_t heartbeat_timeout_ms = 10000;
  /// A single job in flight this long marks its worker hung; 0 = no deadline.
  std::uint32_t job_deadline_ms = 0;
  /// Speculatively duplicate a job in flight this long onto an idle worker
  /// once the queue is empty; 0 = no speculation.
  std::uint32_t straggler_after_ms = 0;
  /// Backoff before reopening a closed link (reconnect or respawn):
  /// base << attempt, capped.
  std::uint32_t reconnect_base_ms = 200;
  std::uint32_t reconnect_cap_ms = 5000;
  /// Reopen attempts in a row (reset by a record) before a worker is
  /// abandoned for good.
  std::uint32_t max_reconnects = 5;
  /// Dispatch attempts per job before the sweep fails.
  std::uint32_t max_job_attempts = 3;
};

struct SweepOptions {
  std::uint32_t seeds = 1;
  /// Worker threads when procs == 0; 0 = hardware concurrency. Results are
  /// identical for any value.
  std::uint32_t jobs = 1;
  /// Worker *processes* under the dispatcher; 0 = run in-process on `jobs`
  /// threads. Requires a shippable scenario (registered name or scenario
  /// file). Results are bit-identical to any in-process run.
  std::uint32_t procs = 0;
  /// Remote `ngsim --serve` workers as "host:port" endpoints. Non-empty
  /// gives the dispatcher TCP links instead of local processes and
  /// overrides jobs/procs. Same bit-identical guarantee as every executor.
  std::vector<std::string> hosts;
  /// Liveness / re-dispatch knobs for `procs` and `hosts` workers.
  FleetTuning fleet;
  /// One immutable pre-generated tx pool per sweep point, shared by all of
  /// its seeds (instead of a per-seed copy).
  bool share_workload = true;
  /// argv prefix exec'd for each worker process (e.g. {"/proc/self/exe",
  /// "--worker"}). Empty: fork without exec (same binary, no exec).
  std::vector<std::string> worker_argv;

  /// Non-empty: consult/populate a content-addressed record cache in this
  /// directory (runner/cache.hpp). Keyed by (scenario-source hash, resolved
  /// point-config digest, seed); hits skip the simulation entirely and are
  /// byte-identical to a fresh run. Journal records prefilled by `resume`
  /// take precedence — the cache only answers for the holes.
  std::string cache_dir;

  /// Non-empty: append every completed record to this crash-safe journal
  /// (runner/journal.hpp). With `resume`, the path must hold the journal of
  /// an identical earlier sweep: its records prefill their slots and only
  /// the holes are re-dispatched — final output byte-identical to an
  /// uninterrupted run.
  std::string journal_path;
  bool resume = false;

  /// Runtime telemetry (obs/telemetry.hpp). When set, run_sweep feeds it job
  /// counts, journal fsync stats, and (with `procs` or `hosts`) per-worker
  /// dispatcher state.
  /// Non-owning; null disables all accounting.
  obs::SweepTelemetry* telemetry = nullptr;
  /// Render a one-line progress report to stderr every ~500 ms (plus one
  /// final line). Purely cosmetic: sweep artifacts are byte-identical with
  /// and without it.
  bool progress = false;

  /// Decision-trace categories (obs/trace_ring.hpp mask; 0 = off). Only the
  /// in-process thread executor supports tracing — run_sweep rejects a
  /// non-zero mask combined with `procs` or `hosts`.
  std::uint32_t trace_mask = 0;
  /// Where the per-job trace JSONL goes when trace_mask != 0 (required then).
  /// Line order across jobs is scheduling-dependent under jobs > 1; every
  /// line carries its (point, ordinal) identity.
  std::string trace_path;

  /// Dispatcher test hooks; negative = off. Worker 0 (hosts[0], or the
  /// first local process) is told in every handshake to SIGKILL itself, or
  /// to compute forever while heartbeating, when handed its (n+1)-th job.
  int test_kill_worker0_after_jobs = -1;
  int test_hang_host0_after_jobs = -1;
  /// The dispatcher closes worker 0's link after this many of its records,
  /// exercising reopen + re-dispatch.
  int test_sever_host0_after_records = -1;
  /// Throw SweepInterrupted after this many records in total: a
  /// deterministic stand-in for SIGTERM mid-sweep.
  int test_interrupt_after_records = -1;
};

struct PointResult {
  std::vector<std::string> labels;
  double x = 0;
  std::vector<RunRecord> seeds;  ///< ordered by seed ordinal
  std::vector<std::pair<std::string, MetricAggregate>> aggregates;
};

struct SweepResult {
  std::string scenario;
  std::string description;
  std::uint32_t seeds = 1;
  std::uint32_t jobs = 1;   ///< parallel lanes actually used (threads or procs)
  std::uint32_t procs = 0;  ///< worker processes (0 = in-process threads)
  double wall_s = 0;
  std::vector<PointResult> points;
};

/// Run every (point, seed) job of the scenario. Rethrows the first job
/// failure after the executor has quiesced. Throws SweepInterrupted (with
/// the journal flushed) if the sweep interrupt flag is raised mid-run.
SweepResult run_sweep(const Scenario& scenario, const SweepOptions& options);

// Forward declaration (runner/executor.hpp).
class Executor;

/// Build the executor `options` selects — the dispatcher for `hosts` or
/// `procs`, else the in-process thread pool. Shared by run_sweep and the
/// adaptive driver (runner/adaptive.hpp) so both dispatch identically.
std::unique_ptr<Executor> make_sweep_executor(const SweepOptions& options);

}  // namespace bng::runner
