#include "runner/worker_protocol.hpp"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "runner/cache.hpp"
#include "runner/executor.hpp"
#include "runner/io_util.hpp"
#include "sim/experiment.hpp"

namespace bng::runner {

using wire::put_u16;
using wire::put_u32;

std::string handshake_payload(const ScenarioSource& source, bool share_workload,
                              WorkerHooks hooks, std::uint32_t heartbeat_ms) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kHandshake));
  put_u16(p, kRecordCodecVersion);
  p.push_back(source.kind == ScenarioSource::Kind::kBuiltin ? 0 : 1);
  put_u32(p, static_cast<std::uint32_t>(source.ref.size()));
  p += source.ref;
  put_u32(p, source.knobs.nodes);
  put_u32(p, source.knobs.blocks);
  p.push_back(share_workload ? 1 : 0);
  put_u32(p, hooks.kill_after);
  put_u32(p, hooks.hang_after);
  put_u32(p, heartbeat_ms);
  return p;
}

std::string job_payload(std::uint32_t point, std::uint32_t ordinal) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kJob));
  put_u32(p, point);
  put_u32(p, ordinal);
  return p;
}

std::string error_payload(std::string_view message) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kError));
  p += message;
  return p;
}

std::string heartbeat_payload() {
  return std::string(1, static_cast<char>(FrameKind::kHeartbeat));
}

std::string heartbeat_payload(const obs::WorkerStatsFrame& stats) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kHeartbeat));
  put_u32(p, stats.jobs_done);
  put_u32(p, stats.pool_rebuilds);
  wire::put_u64(p, stats.busy_ms);
  put_u32(p, stats.cache_hits);
  put_u32(p, stats.cache_misses);
  put_u32(p, stats.cache_stale);
  put_u32(p, stats.cache_stores);
  return p;
}

std::optional<obs::WorkerStatsFrame> parse_heartbeat_stats(wire::Reader& in) {
  if (in.pos >= in.data.size()) return std::nullopt;  // bare beacon
  obs::WorkerStatsFrame f;
  f.jobs_done = in.u32();
  f.pool_rebuilds = in.u32();
  f.busy_ms = in.u64();
  // Cache counters arrived with the record cache; a frame ending at busy_ms
  // (a pre-cache worker) is still valid and leaves them zero.
  if (in.pos < in.data.size()) {
    f.cache_hits = in.u32();
    f.cache_misses = in.u32();
    f.cache_stale = in.u32();
    f.cache_stores = in.u32();
  }
  return f;
}

namespace {

// --- Heartbeat beacon -----------------------------------------------------
//
// A worker heartbeats from an interval timer's SIGALRM handler, not from a
// thread. A second thread would put the worker on glibc's and libstdc++'s
// multi-threaded paths (locked malloc arenas, atomic shared_ptr counts) for
// every job it runs: about 4% more CPU on the 45-job selfish-mining sweep
// under `--procs 4` on a 4-core machine. A stopped worker's signal stays
// pending, so it falls silent; a worker stuck inside a job still beats, so
// only the dispatcher's job deadline catches it. A worker process is
// single-threaded and runs one session at a time (serve_loop runs them in
// turn), so the beacon is one static and blocking SIGALRM in this thread is
// enough to keep it out.

struct Beacon {
  volatile sig_atomic_t fd = -1;  ///< -1: no session, the handler does nothing
  std::array<char, 64> frame{};   ///< the framed 'B' payload the handler sends
  std::size_t len = 0;
};
Beacon g_beacon;

extern "C" void beacon_tick(int) {
  const int saved_errno = errno;
  std::size_t off = 0;
  while (g_beacon.fd >= 0 && off < g_beacon.len) {
    const ssize_t n =
        ::send(g_beacon.fd, g_beacon.frame.data() + off, g_beacon.len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      g_beacon.fd = -1;  // dispatcher gone: the session's next read sees it too
    }
  }
  errno = saved_errno;
}

/// Holds SIGALRM back for a scope, so that the handler never writes in the
/// middle of a frame the session is sending or a beacon frame it is changing.
class BeaconHold {
 public:
  BeaconHold() {
    sigset_t alarm;
    sigemptyset(&alarm);
    sigaddset(&alarm, SIGALRM);
    ::pthread_sigmask(SIG_BLOCK, &alarm, &saved_);
  }
  ~BeaconHold() { ::pthread_sigmask(SIG_SETMASK, &saved_, nullptr); }
  BeaconHold(const BeaconHold&) = delete;
  BeaconHold& operator=(const BeaconHold&) = delete;

 private:
  sigset_t saved_;
};

/// Replace the frame the beacon sends (called after every job, so the
/// piggybacked stats follow the worker's progress).
void beacon_set(std::string_view payload) {
  const std::string bytes = frame(payload);
  if (bytes.size() > g_beacon.frame.size())
    throw std::logic_error("worker: heartbeat frame larger than the beacon buffer");
  BeaconHold hold;
  std::memcpy(g_beacon.frame.data(), bytes.data(), bytes.size());
  g_beacon.len = bytes.size();
}

/// Beat on `fd` every `interval_ms` until beacon_stop.
void beacon_start(int fd, std::uint32_t interval_ms, std::string_view payload) {
  beacon_set(payload);
  g_beacon.fd = fd;
  struct sigaction sa {};
  sa.sa_handler = beacon_tick;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // the session's blocking reads resume after a beat
  ::sigaction(SIGALRM, &sa, nullptr);
  sigset_t alarm;
  sigemptyset(&alarm);
  sigaddset(&alarm, SIGALRM);
  ::pthread_sigmask(SIG_UNBLOCK, &alarm, nullptr);  // a spawner may have blocked it
  itimerval every{};
  every.it_interval.tv_sec = static_cast<time_t>(interval_ms / 1000);
  every.it_interval.tv_usec = static_cast<suseconds_t>(interval_ms % 1000) * 1000;
  every.it_value = every.it_interval;
  ::setitimer(ITIMER_REAL, &every, nullptr);
}

/// Disarm the timer. The handler stays installed: a beat already pending
/// finds fd -1 and does nothing, where the default action would kill us.
void beacon_stop() {
  const itimerval off{};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  BeaconHold hold;
  g_beacon.fd = -1;
}

/// Send one framed payload to the dispatcher. Returns false when the
/// dispatcher is gone (the worker should wind down).
bool send_payload(int fd, std::string_view payload) {
  const std::string bytes = frame(payload);
  BeaconHold hold;
  return io::send_all(fd, bytes);
}

/// Worker-side session state: the rebuilt scenario, its re-expanded grid,
/// and the one cached per-point workload pool.
struct WorkerState {
  std::optional<Scenario> scenario;
  std::vector<SweepPoint> points;
  bool share_workload = true;
  WorkerHooks hooks;
  std::uint32_t heartbeat_ms = 0;
  // Self-reported stats, piggybacked on heartbeats.
  std::uint32_t jobs_done = 0;
  std::uint32_t pool_rebuilds = 0;
  std::uint64_t busy_ms = 0;

  /// Snapshot for a heartbeat; merges in the active record cache's counters
  /// (runner/cache.hpp) when one is set.
  [[nodiscard]] obs::WorkerStatsFrame stats_frame() const;
  // One pool is cached at a time, keyed by the workload digest rather than
  // the point index: points whose deltas don't touch the workload inputs
  // (e.g. an alpha x gamma attack grid) share the pool, so pool_rebuilds
  // collapses to ~#distinct workloads. The pool is a seed-independent pure
  // function of those inputs, so rebuilt pools stay bit-identical anyway.
  std::uint64_t pool_digest = 0;
  std::shared_ptr<const sim::PrebuiltWorkload> pool;
};

obs::WorkerStatsFrame WorkerState::stats_frame() const {
  obs::WorkerStatsFrame f;
  f.jobs_done = jobs_done;
  f.pool_rebuilds = pool_rebuilds;
  f.busy_ms = busy_ms;
  if (const RunCache* cache = active_run_cache()) {
    const RunCache::Counters c = cache->counters();
    f.cache_hits = static_cast<std::uint32_t>(c.hits);
    f.cache_misses = static_cast<std::uint32_t>(c.misses);
    f.cache_stale = static_cast<std::uint32_t>(c.stale);
    f.cache_stores = static_cast<std::uint32_t>(c.stores);
  }
  return f;
}

/// Parse an 'H' frame (cursor positioned after the kind byte) and rebuild
/// the scenario + grid. Throws on version skew or an unknown scenario.
void worker_handshake(WorkerState& st, wire::Reader& in) {
  const std::uint16_t version = in.u16();
  if (version != kRecordCodecVersion)
    throw CodecError("worker speaks codec version " +
                     std::to_string(kRecordCodecVersion) + ", dispatcher sent " +
                     std::to_string(version));
  const std::uint8_t kind = in.u8();
  const std::uint32_t ref_len = in.u32();
  const std::string ref = in.str(ref_len);
  RunKnobs knobs;
  knobs.nodes = in.u32();
  knobs.blocks = in.u32();
  st.share_workload = in.u8() != 0;
  st.hooks.kill_after = in.u32();
  st.hooks.hang_after = in.u32();
  st.heartbeat_ms = in.u32();
  if (kind == 0) {
    st.scenario = make_scenario(ref, knobs);
    if (!st.scenario)
      throw std::runtime_error("worker: unknown scenario '" + ref + "'");
  } else {
    st.scenario = load_scenario_string(ref, "<inline>", knobs);
  }
  st.points = expand(*st.scenario);
}

/// Run one 'J' frame's job and send the 'R' record (or trip a fault hook).
/// Returns false when the dispatcher is unreachable.
bool worker_job(WorkerState& st, wire::Reader& in, int fd) {
  if (!st.scenario) throw std::runtime_error("worker: job before handshake");
  const std::uint32_t point = in.u32();
  const std::uint32_t ordinal = in.u32();
  if (point >= st.points.size())
    throw std::runtime_error("worker: job point out of range");
  if (st.hooks.kill_after != kHookDisabled && st.jobs_done >= st.hooks.kill_after)
    ::raise(SIGKILL);  // test hook: die mid-job, record unsent
  if (st.hooks.hang_after != kHookDisabled && st.jobs_done >= st.hooks.hang_after) {
    // Test hook: hang, not die — the beacon keeps beating, so only a
    // per-job deadline can catch this worker.
    for (;;) ::usleep(50'000);
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (st.share_workload) {
    // Keyed by workload digest, not point index: consecutive jobs whose
    // points share workload inputs reuse the pool. Seed-independent pure
    // function of those inputs (see the thread executor): rebuilt pools are
    // bit-identical across workers.
    const std::uint64_t digest = sim::workload_digest(st.points[point].config);
    if (!st.pool || st.pool_digest != digest) {
      st.pool = sim::build_shared_workload(st.points[point].config);
      st.pool_digest = digest;
      ++st.pool_rebuilds;
    }
  }
  RunRecord rec = run_job(*st.scenario, st.points[point], point, ordinal,
                          st.share_workload ? st.pool : nullptr);
  ++st.jobs_done;
  st.busy_ms += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (st.heartbeat_ms > 0) beacon_set(heartbeat_payload(st.stats_frame()));
  std::string payload;
  payload.push_back(static_cast<char>(FrameKind::kRecord));
  payload += encode_record(rec);
  return send_payload(fd, payload);
}

}  // namespace

int worker_session(int fd) {
  WorkerState st;
  int rc = 0;
  try {
    std::string buf;
    std::string payload;
    for (;;) {
      while (take_frame(buf, payload)) {
        if (payload.empty()) throw CodecError("worker: empty frame");
        wire::Reader in{payload, 1};
        switch (static_cast<FrameKind>(payload[0])) {
          case FrameKind::kHandshake:
            worker_handshake(st, in);
            if (st.heartbeat_ms > 0)
              beacon_start(fd, st.heartbeat_ms, heartbeat_payload(st.stats_frame()));
            break;
          case FrameKind::kJob:
            if (!worker_job(st, in, fd)) {
              beacon_stop();
              return 1;  // dispatcher went away mid-send
            }
            break;
          default:
            throw CodecError("worker: unexpected frame kind");
        }
      }
      if (io::read_some(fd, buf) != io::ReadResult::kData) break;  // EOF/reset
    }
  } catch (const std::exception& e) {
    send_payload(fd, error_payload(e.what()));
    rc = 1;
  } catch (...) {
    send_payload(fd, error_payload("unknown worker error"));
    rc = 1;
  }
  beacon_stop();
  return rc;
}

int make_listen_socket(std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("serve: socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: bind: ") + std::strerror(saved));
  }
  if (::listen(fd, 16) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: listen: ") + std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: getsockname: ") +
                             std::strerror(saved));
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

int serve_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return 1;
    }
    io::set_nodelay(fd);
    // One dispatcher at a time, each connection a fresh session: a crashed
    // dispatcher's --resume successor reconnects and starts clean.
    worker_session(fd);
    ::close(fd);
  }
}

int serve_main(std::uint16_t port) {
  std::uint16_t bound = 0;
  int listen_fd;
  try {
    listen_fd = make_listen_socket(port, bound);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ngsim: %s\n", e.what());
    return 1;
  }
  std::printf("ngsim: serving on port %u\n", bound);
  std::fflush(stdout);
  return serve_loop(listen_fd);
}

}  // namespace bng::runner
