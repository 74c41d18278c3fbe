// The dispatcher behind `--procs` and `--hosts` (design: runner/executor.hpp).
// Past building the worker list, only open_link and close_link know whether
// a worker is a local child or a TCP endpoint.
#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "runner/executor.hpp"
#include "runner/io_util.hpp"
#include "runner/record_codec.hpp"
#include "runner/sweep.hpp"
#include "runner/worker_protocol.hpp"

namespace bng::runner {

void check_fleet_tuning(const FleetTuning& tuning) {
  if (tuning.heartbeat_ms < 1 || tuning.heartbeat_ms >= tuning.heartbeat_timeout_ms)
    throw std::invalid_argument(
        "dispatcher: heartbeat_ms (" + std::to_string(tuning.heartbeat_ms) +
        ") must be at least 1 and below heartbeat_timeout_ms (" +
        std::to_string(tuning.heartbeat_timeout_ms) + ")");
}

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool send_frame(int fd, std::string_view payload) {
  return io::send_all(fd, frame(payload));
}

struct Endpoint {
  std::string host;
  std::string port;
};

Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size())
    throw std::invalid_argument("dispatcher: bad host spec '" + spec +
                                "' (expected host:port)");
  return Endpoint{spec.substr(0, colon), spec.substr(colon + 1)};
}

/// Blocking-with-timeout TCP connect; returns the connected fd (set back to
/// blocking, TCP_NODELAY on) or -1 with `error` filled in.
int connect_with_timeout(const Endpoint& ep, std::uint32_t timeout_ms,
                         std::string& error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &res);
  if (gai != 0) {
    error = std::string("resolve: ") + ::gai_strerror(gai);
    return -1;
  }
  int fd = -1;
  error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    int rc;
    do {
      rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      } while (rc < 0 && errno == EINTR);
      if (rc > 0) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) {
          rc = 0;
        } else {
          errno = err;
          rc = -1;
        }
      } else if (rc == 0) {
        errno = ETIMEDOUT;
        rc = -1;
      }
    }
    if (rc == 0) {
      // Connected: drop non-blocking (the dispatcher gates every recv with
      // poll, so blocking sockets keep the I/O paths simple).
      const int flags = ::fcntl(fd, F_GETFL);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      io::set_nodelay(fd);
      break;
    }
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

enum class JobState : std::uint8_t { kPending, kInflight, kDone };

/// One worker and its link. With an endpoint the link is a TCP connection
/// to an `ngsim --serve` worker; without one it is a socketpair to a local
/// child that opening the link spawns.
struct Worker {
  std::string name;  ///< "host:port" or "local:<i>", for messages and telemetry
  std::optional<Endpoint> endpoint;
  pid_t pid = -1;  ///< the local child while its link is open
  int fd = -1;
  bool alive = false;
  bool abandoned = false;  ///< reopen budget exhausted
  std::string buf;
  std::optional<std::size_t> inflight;  ///< job index
  /// True when the in-flight job is a speculative duplicate (straggler
  /// policy) — if its record lands first, that is a speculation win.
  bool speculative = false;
  std::uint64_t last_heard_ms = 0;
  std::uint64_t job_started_ms = 0;
  std::uint32_t reconnects = 0;  ///< consecutive reopen attempts; reset on a record
  std::uint64_t next_reconnect_ms = 0;
  std::uint32_t records_seen = 0;
  std::string last_error;  ///< most recent open failure, for diagnostics

  // Telemetry accumulators (reported through obs::SweepTelemetry).
  std::uint32_t total_reconnects = 0;  ///< lifetime, never reset
  std::uint32_t speculation_wins = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t max_silence_ms = 0;
  obs::WorkerStatsFrame reported;  ///< latest piggybacked stats frame
};

class Dispatcher final : public Executor {
 public:
  explicit Dispatcher(const SweepOptions& options) : opt_(options) {
    check_fleet_tuning(opt_.fleet);
  }

  ~Dispatcher() override { close_all(); }

  std::uint32_t run(const ExecutionPlan& plan, const RecordSink& sink) override {
    if (!plan.scenario.source)
      throw std::invalid_argument(
          "--procs/--hosts execution needs a shippable scenario (a registered name "
          "or a scenario file); this scenario was built programmatically");
    if (plan.trace_mask != 0)
      throw std::invalid_argument(
          "dispatcher: decision tracing requires the in-process executor");
    telemetry_ = plan.telemetry;
    seed_base_ = plan.scenario.seed_base;
    seeds_ = plan.seeds;

    const std::size_t n_jobs = plan.points.size() * static_cast<std::size_t>(plan.seeds);
    job_state_.assign(n_jobs, JobState::kPending);
    job_attempts_.assign(n_jobs, 0);
    queue_.clear();
    for (std::size_t job = 0; job < n_jobs; ++job) {
      if (plan_job_done(plan, job)) {
        job_state_[job] = JobState::kDone;
      } else {
        queue_.push_back(job);
      }
    }
    const std::size_t n_pending = queue_.size();

    workers_.clear();
    if (!opt_.hosts.empty()) {
      for (const std::string& spec : opt_.hosts) {
        Worker w;
        w.name = spec;
        w.endpoint = parse_endpoint(spec);
        workers_.push_back(std::move(w));
      }
    } else {
      const std::size_t width = std::min<std::size_t>(
          std::max(opt_.procs, 1u), std::max<std::size_t>(n_pending, 1));
      for (std::size_t i = 0; i < width; ++i) {
        Worker w;
        w.name = "local:" + std::to_string(i);
        workers_.push_back(std::move(w));
      }
    }
    const auto width = static_cast<std::uint32_t>(workers_.size());
    if (n_pending == 0) return width;
    if (telemetry_ != nullptr) {
      std::vector<std::string> names;
      for (const Worker& w : workers_) names.push_back(w.name);
      telemetry_->init_workers(names);
    }

    try {
      const std::uint64_t start = now_ms();
      bool any_alive = false;
      for (Worker& w : workers_) {
        if (open_link(w, plan, start))
          any_alive = true;
        else
          schedule_reconnect(w, start);
      }
      if (!any_alive) {
        // Fail fast: zero reachable workers is a configuration error (a
        // typo'd endpoint, workers not started), not a transient fault worth
        // a full reopen budget. Name every worker and what its open said.
        std::string msg = opt_.hosts.empty()
                              ? "dispatcher: no local worker could be started:"
                              : "dispatcher: no --hosts endpoint is reachable:";
        for (const Worker& w : workers_) msg += "\n  " + w.name + " (" + w.last_error + ")";
        throw std::runtime_error(msg);
      }

      std::size_t completed = 0;
      while (completed < n_pending) {
        throw_if_interrupted();
        const std::uint64_t now = now_ms();
        check_liveness(now);
        try_reconnects(plan, now);
        dispatch(now);
        ensure_progress(completed, n_pending);
        poll_io(plan, sink, completed, n_pending);
        publish_telemetry();
      }
    } catch (...) {
      publish_telemetry();
      close_all();
      throw;
    }

    publish_telemetry();  // final snapshot shows end-of-sweep liveness
    close_all();  // TCP workers see EOF and return to their accept loop
    return width;
  }

 private:
  WorkerHooks hooks_for(std::size_t worker_index) const {
    WorkerHooks hooks;
    if (worker_index == 0) {
      if (opt_.test_kill_worker0_after_jobs >= 0)
        hooks.kill_after = static_cast<std::uint32_t>(opt_.test_kill_worker0_after_jobs);
      if (opt_.test_hang_host0_after_jobs >= 0)
        hooks.hang_after = static_cast<std::uint32_t>(opt_.test_hang_host0_after_jobs);
    }
    return hooks;
  }

  /// Open w's link (connect, or spawn a local child) and send the
  /// handshake. True on success; the failure reason is in w.last_error.
  bool open_link(Worker& w, const ExecutionPlan& plan, std::uint64_t now) {
    w.fd = w.endpoint ? connect_with_timeout(*w.endpoint, opt_.fleet.connect_timeout_ms,
                                             w.last_error)
                      : spawn(w);
    if (w.fd < 0) return false;
    const std::size_t index = static_cast<std::size_t>(&w - workers_.data());
    if (!send_frame(w.fd, handshake_payload(*plan.scenario.source, plan.share_workload,
                                            hooks_for(index), opt_.fleet.heartbeat_ms))) {
      w.last_error = "handshake send failed";
      close_link(w);
      return false;
    }
    w.alive = true;
    w.buf.clear();
    w.inflight.reset();
    w.speculative = false;
    w.last_heard_ms = now;
    w.next_reconnect_ms = 0;
    return true;
  }

  /// Fork a local worker on a fresh socketpair; returns the parent's end
  /// (w.pid set), or -1 with w.last_error filled in.
  int spawn(Worker& w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      w.last_error = std::string("socketpair: ") + std::strerror(errno);
      return -1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      w.last_error = std::string("fork: ") + std::strerror(errno);
      ::close(sv[0]);
      ::close(sv[1]);
      return -1;
    }
    if (pid == 0) {
      // Child. Drop every parent-side fd: a sibling holding a copy would
      // keep that worker from ever seeing EOF.
      ::close(sv[0]);
      for (const Worker& other : workers_)
        if (other.fd >= 0) ::close(other.fd);
      if (opt_.worker_argv.empty()) ::_exit(worker_session(sv[1]));
      // Exec mode: the worker speaks the protocol on stdin (dup2 clears
      // the close-on-exec flag on the copy).
      ::dup2(sv[1], STDIN_FILENO);
      std::vector<char*> argv;
      argv.reserve(opt_.worker_argv.size() + 1);
      for (const std::string& a : opt_.worker_argv)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execvp(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(sv[1]);
    w.pid = pid;
    return sv[0];
  }

  /// Close w's link. A local child is killed and reaped; SIGCONT follows
  /// the SIGKILL so that even a stopped child dies and waitpid cannot block.
  static void close_link(Worker& w) {
    if (w.fd >= 0) ::close(w.fd);
    w.fd = -1;
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::kill(w.pid, SIGCONT);
      while (::waitpid(w.pid, nullptr, 0) < 0 && errno == EINTR) {
      }
      w.pid = -1;
    }
  }

  void check_liveness(std::uint64_t now) {
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      if (now - w.last_heard_ms > opt_.fleet.heartbeat_timeout_ms) {
        // Dead (or stopped): nothing has arrived inside the window the
        // worker was told to heartbeat within.
        disconnect(w, now);
        continue;
      }
      if (w.inflight && opt_.fleet.job_deadline_ms > 0 &&
          now - w.job_started_ms > opt_.fleet.job_deadline_ms) {
        // Hung, not dead: the worker still heartbeats but its job blew the
        // deadline. Abandon the link; the job runs elsewhere.
        disconnect(w, now);
      }
    }
  }

  void try_reconnects(const ExecutionPlan& plan, std::uint64_t now) {
    for (Worker& w : workers_) {
      if (w.alive || w.abandoned || w.next_reconnect_ms == 0 ||
          now < w.next_reconnect_ms)
        continue;
      ++w.reconnects;
      ++w.total_reconnects;
      if (!open_link(w, plan, now)) schedule_reconnect(w, now);
    }
  }

  void schedule_reconnect(Worker& w, std::uint64_t now) {
    if (w.abandoned) return;
    if (w.reconnects >= opt_.fleet.max_reconnects) {
      w.abandoned = true;
      w.next_reconnect_ms = 0;
      return;
    }
    const std::uint32_t shift = w.reconnects < 16 ? w.reconnects : 16;
    std::uint64_t delay =
        static_cast<std::uint64_t>(opt_.fleet.reconnect_base_ms) << shift;
    if (delay > opt_.fleet.reconnect_cap_ms) delay = opt_.fleet.reconnect_cap_ms;
    w.next_reconnect_ms = now + delay;
  }

  void dispatch(std::uint64_t now) {
    for (Worker& w : workers_) {
      if (queue_.empty()) break;
      if (!w.alive || w.inflight) continue;
      const std::size_t job = queue_.front();
      queue_.pop_front();
      if (!assign(w, job, now)) {
        queue_.push_front(job);
        continue;
      }
      job_state_[job] = JobState::kInflight;
    }
    if (queue_.empty() && opt_.fleet.straggler_after_ms > 0) speculate(now);
  }

  /// Straggler policy: once the queue is dry, duplicate the longest-running
  /// single-copy job onto each idle worker. The records dedupe by slot, so a
  /// lost race costs nothing and a won race hides a slow worker.
  void speculate(std::uint64_t now) {
    for (Worker& idle : workers_) {
      if (!idle.alive || idle.inflight) continue;
      std::size_t best_job = SIZE_MAX;
      std::uint64_t best_elapsed = 0;
      for (const Worker& busy : workers_) {
        if (!busy.alive || !busy.inflight) continue;
        const std::uint64_t elapsed = now - busy.job_started_ms;
        if (elapsed < opt_.fleet.straggler_after_ms || elapsed < best_elapsed)
          continue;
        if (copies_inflight(*busy.inflight) > 1) continue;  // already duplicated
        best_job = *busy.inflight;
        best_elapsed = elapsed;
      }
      if (best_job == SIZE_MAX) return;
      assign(idle, best_job, now, /*speculative=*/true);  // failure leaves the original
    }
  }

  std::size_t copies_inflight(std::size_t job) const {
    std::size_t n = 0;
    for (const Worker& w : workers_)
      if (w.alive && w.inflight && *w.inflight == job) ++n;
    return n;
  }

  bool assign(Worker& w, std::size_t job, std::uint64_t now, bool speculative = false) {
    const auto point = static_cast<std::uint32_t>(job / seeds_);
    const auto ordinal = static_cast<std::uint32_t>(job % seeds_);
    if (!send_frame(w.fd, job_payload(point, ordinal))) {
      disconnect(w, now);
      return false;
    }
    w.inflight = job;
    w.speculative = speculative;
    w.job_started_ms = now;
    return true;
  }

  void disconnect(Worker& w, std::uint64_t now) {
    close_link(w);
    w.alive = false;
    w.buf.clear();
    if (w.inflight) {
      const std::size_t job = *w.inflight;
      w.inflight.reset();
      w.speculative = false;
      requeue(job);
    }
    schedule_reconnect(w, now);
  }

  /// Push a snapshot of every worker into the attached telemetry (no-op
  /// without one). Control-plane cost: one mutex round per poll tick.
  void publish_telemetry() const {
    if (telemetry_ == nullptr) return;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = workers_[i];
      obs::WorkerTelemetry t;
      t.endpoint = w.name;
      t.alive = w.alive;
      t.abandoned = w.abandoned;
      t.records = w.records_seen;
      t.inflight = w.inflight ? 1 : 0;
      t.reconnects = w.total_reconnects;
      t.speculation_wins = w.speculation_wins;
      t.heartbeats = w.heartbeats;
      t.max_silence_ms = w.max_silence_ms;
      t.reported = w.reported;
      telemetry_->update_worker(i, t);
    }
  }

  void requeue(std::size_t job) {
    if (job_state_[job] == JobState::kDone) return;
    if (copies_inflight(job) > 0) return;  // a speculative duplicate survives
    const auto point = static_cast<std::uint32_t>(job / seeds_);
    const auto ordinal = static_cast<std::uint32_t>(job % seeds_);
    if (++job_attempts_[job] >= opt_.fleet.max_job_attempts)
      throw std::runtime_error(
          "dispatcher: job (point " + std::to_string(point) + ", seed ordinal " +
          std::to_string(ordinal) + ", seed " +
          std::to_string(job_seed(seed_base_, point, ordinal)) + ") lost its worker " +
          std::to_string(job_attempts_[job]) + " times; giving up on the sweep");
    job_state_[job] = JobState::kPending;
    // Front of the queue: the re-run starts before new work, bounding how
    // long a failure can delay the merge.
    queue_.push_front(job);
  }

  /// The graceful-degradation floor: fail loudly the moment no live worker,
  /// no pending reopen, and no in-flight job can still deliver a record —
  /// never hang the merge loop awaiting one that cannot arrive.
  void ensure_progress(std::size_t completed, std::size_t n_pending) const {
    if (completed >= n_pending) return;
    for (const Worker& w : workers_) {
      if (w.alive) return;
      if (!w.abandoned && w.next_reconnect_ms != 0) return;
    }
    throw std::runtime_error(
        "dispatcher: no live workers remain and every reconnect budget is "
        "exhausted (" +
        std::to_string(n_pending - completed) + " of " + std::to_string(n_pending) +
        " jobs incomplete)");
  }

  void poll_io(const ExecutionPlan& plan, const RecordSink& sink,
               std::size_t& completed, std::size_t n_pending) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      fds.push_back(pollfd{workers_[i].fd, POLLIN, 0});
      index.push_back(i);
    }
    // Short tick so liveness checks, reopen timers, and the interrupt flag
    // are serviced even when no bytes flow. A record wakes the poll at once,
    // and the next loop pass hands that worker its next job.
    const int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error(std::string("dispatcher: poll: ") + std::strerror(errno));
    }
    const std::uint64_t now = now_ms();
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      Worker& w = workers_[index[k]];
      if (!w.alive) continue;  // disconnected earlier in this pass
      switch (io::recv_some(w.fd, w.buf)) {
        case io::ReadResult::kData:
          if (now - w.last_heard_ms > w.max_silence_ms)
            w.max_silence_ms = now - w.last_heard_ms;
          w.last_heard_ms = now;
          drain_frames(w, plan, sink, completed, now);
          if (completed >= n_pending) return;
          break;
        case io::ReadResult::kEof:
        case io::ReadResult::kError:
          disconnect(w, now);
          break;
      }
    }
  }

  void drain_frames(Worker& w, const ExecutionPlan& plan, const RecordSink& sink,
                    std::size_t& completed, std::uint64_t now) {
    std::string payload;
    while (w.alive && take_frame(w.buf, payload)) {
      if (payload.empty())
        throw std::runtime_error("dispatcher: empty frame from " + w.name);
      switch (static_cast<FrameKind>(payload[0])) {
        case FrameKind::kHeartbeat: {
          // The bytes themselves already refreshed last_heard_ms; a stats
          // frame may ride along (older workers send the bare kind byte).
          ++w.heartbeats;
          wire::Reader in{payload, 1};
          if (const auto stats = parse_heartbeat_stats(in)) w.reported = *stats;
          break;
        }
        case FrameKind::kRecord:
          handle_record(w, std::string_view(payload).substr(1), plan, sink, completed,
                        now);
          break;
        case FrameKind::kError:
          throw std::runtime_error("sweep job failed in worker " + w.name + ": " +
                                   payload.substr(1));
        default:
          throw std::runtime_error("dispatcher: unexpected frame from " + w.name);
      }
    }
  }

  void handle_record(Worker& w, std::string_view bytes, const ExecutionPlan& plan,
                     const RecordSink& sink, std::size_t& completed, std::uint64_t now) {
    RunRecord rec = decode_record(bytes);
    if (rec.point >= plan.points.size() || rec.ordinal >= plan.seeds)
      throw std::runtime_error("dispatcher: record identity out of range from " + w.name);
    const std::size_t job = static_cast<std::size_t>(rec.point) * seeds_ + rec.ordinal;
    if (!w.inflight || *w.inflight != job)
      throw std::runtime_error("dispatcher: record for a job " + w.name +
                               " was not assigned");
    const bool was_speculative = w.speculative;
    w.inflight.reset();
    w.speculative = false;
    w.reconnects = 0;  // delivered work proves the worker healthy again
    ++w.records_seen;

    if (job_state_[job] != JobState::kDone) {
      job_state_[job] = JobState::kDone;
      ++completed;
      if (was_speculative) ++w.speculation_wins;
      sink(std::move(rec));
      ++records_delivered_;
      if (opt_.test_interrupt_after_records >= 0 &&
          records_delivered_ >=
              static_cast<std::size_t>(opt_.test_interrupt_after_records)) {
        // Deterministic SIGTERM stand-in: raise the flag exactly as the
        // signal handler would, then take the cooperative exit right away.
        sweep_interrupt_flag().store(true, std::memory_order_relaxed);
        throw_if_interrupted();
      }
    }
    // else: a speculative duplicate lost the race — drop it silently.

    const std::size_t index = static_cast<std::size_t>(&w - workers_.data());
    if (index == 0 && opt_.test_sever_host0_after_records >= 0 && !severed_ &&
        w.records_seen >= static_cast<std::uint32_t>(opt_.test_sever_host0_after_records)) {
      severed_ = true;  // test hook: cut the link; reopening must heal it
      disconnect(w, now);
    }
  }

  void close_all() {
    for (Worker& w : workers_) {
      close_link(w);
      w.alive = false;
    }
  }

  const SweepOptions opt_;
  obs::SweepTelemetry* telemetry_ = nullptr;
  std::vector<Worker> workers_;
  std::deque<std::size_t> queue_;
  std::vector<JobState> job_state_;
  std::vector<std::uint32_t> job_attempts_;
  std::uint32_t seeds_ = 1;
  std::uint64_t seed_base_ = 0;
  std::size_t records_delivered_ = 0;
  bool severed_ = false;
};

}  // namespace

std::unique_ptr<Executor> make_dispatcher(const SweepOptions& options) {
  return std::make_unique<Dispatcher>(options);
}

}  // namespace bng::runner
