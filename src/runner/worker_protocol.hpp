// The worker wire protocol and the worker side of it. The dispatcher
// (runner/executor.hpp) speaks it over every link, socketpair or TCP, and
// one session function serves it for `ngsim --worker` and `ngsim --serve`
// alike — that is what makes an N-machine sweep bit-identical to
// `--procs N` and to `--jobs 1`.
//
// Frames (runner/record_codec.hpp length-prefixed framing):
//
//   dispatcher -> worker  'H' u16 codec-version, u8 source-kind, u32+bytes
//                             scenario ref (registered name | scenario text),
//                             u32 nodes, u32 blocks, u8 share_workload,
//                             u32 kill-after, u32 hang-after (test hooks;
//                             0xffffffff = off), u32 heartbeat-ms (0 = none)
//   dispatcher -> worker  'J' u32 point, u32 ordinal
//   worker -> dispatcher  'R' encode_record() bytes
//   worker -> dispatcher  'E' utf-8 error message (fatal; dispatcher rethrows)
//   worker -> dispatcher  'B' heartbeat. Optionally followed by a compact
//                             stats frame: u32 jobs_done, u32 pool_rebuilds,
//                             u64 busy_ms, then (when the worker caches) u32
//                             cache_hits, u32 cache_misses, u32 cache_stale,
//                             u32 cache_stores. A bare kind byte is still a
//                             valid beacon (old workers), dispatchers ignore
//                             payload they don't expect (old dispatchers),
//                             and a stats frame ending at busy_ms leaves the
//                             cache counters zero — the piggyback is
//                             compatible in both directions at every length.
//
// The worker rebuilds the scenario from its shippable source (the registry
// for builtins, the key=value grammar for inline text), re-expands the sweep
// grid, and funnels every job through the same run_job() as the in-process
// thread pool — so a record computed anywhere is bit-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/telemetry.hpp"
#include "runner/record_codec.hpp"
#include "runner/scenario.hpp"

namespace bng::runner {

/// "Off" value for the handshake's kill-after / hang-after test hooks.
inline constexpr std::uint32_t kHookDisabled = 0xffffffffu;

/// Fault-injection hooks shipped in the handshake, driven by tests:
/// `kill_after` makes the worker SIGKILL itself when handed
/// its (n+1)-th job (a crash mid-job); `hang_after` makes it compute forever
/// on that job while its heartbeat keeps beating (a hung-not-dead
/// worker, exercising the dispatcher's per-job deadline).
struct WorkerHooks {
  std::uint32_t kill_after = kHookDisabled;
  std::uint32_t hang_after = kHookDisabled;
};

[[nodiscard]] std::string handshake_payload(const ScenarioSource& source,
                                            bool share_workload, WorkerHooks hooks,
                                            std::uint32_t heartbeat_ms);
[[nodiscard]] std::string job_payload(std::uint32_t point, std::uint32_t ordinal);
[[nodiscard]] std::string error_payload(std::string_view message);
[[nodiscard]] std::string heartbeat_payload();
/// Heartbeat carrying the worker's self-reported stats (see the 'B' frame
/// doc above).
[[nodiscard]] std::string heartbeat_payload(const obs::WorkerStatsFrame& stats);
/// Parse a 'B' payload (cursor past the kind byte). Returns std::nullopt for
/// a bare beacon with no stats.
[[nodiscard]] std::optional<obs::WorkerStatsFrame> parse_heartbeat_stats(
    wire::Reader& in);

/// One worker session over a connected socket `fd`: answer the handshake,
/// run each job and send its record until EOF, heartbeating at the interval
/// the handshake asks for (from a SIGALRM interval timer, so the session
/// owns the process's SIGALRM and ITIMER_REAL while it runs). Errors go back
/// as an 'E' frame. Returns 0 at EOF, 1 on an error or a dispatcher that
/// went away. Never throws. `ngsim --worker` runs it on stdin; serve_loop
/// per connection.
int worker_session(int fd);

/// Create a listening TCP socket on 0.0.0.0:`port` (0 = kernel-assigned).
/// Returns the fd and stores the bound port; throws std::runtime_error.
int make_listen_socket(std::uint16_t port, std::uint16_t& bound_port);

/// Worker accept loop: serve one dispatcher connection at a time, each a
/// fresh session, until the process is killed. Surviving a dispatcher crash
/// is the point — the next dispatcher (e.g. `--resume`) reconnects and gets
/// a clean session.
int serve_loop(int listen_fd);

/// `ngsim --serve <port>`: bind, announce the port on stdout, serve_loop.
int serve_main(std::uint16_t port);

}  // namespace bng::runner
