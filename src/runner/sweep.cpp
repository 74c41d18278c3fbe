#include "runner/sweep.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "runner/cache.hpp"
#include "runner/executor.hpp"
#include "runner/journal.hpp"

namespace bng::runner {

namespace {

/// Background stderr progress reporter: one line every ~500 ms plus a final
/// line on stop. Cosmetic only — it never touches sweep results.
class ProgressReporter {
 public:
  explicit ProgressReporter(const obs::SweepTelemetry& telemetry)
      : telemetry_(telemetry), thread_([this] { loop(); }) {}

  ~ProgressReporter() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    emit();  // final state, always printed (sweeps can finish in < 500 ms)
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      emit();
      cv_.wait_for(lock, std::chrono::milliseconds(500), [this] { return stop_; });
    }
  }

  void emit() {
    const std::string line = telemetry_.progress_line();
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  const obs::SweepTelemetry& telemetry_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::unique_ptr<Executor> make_sweep_executor(const SweepOptions& options) {
  if (!options.hosts.empty() || options.procs > 0) return make_dispatcher(options);
  return make_thread_executor(options.jobs);
}

SweepResult run_sweep(const Scenario& scenario, const SweepOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();

  if (options.trace_mask != 0) {
    if (options.procs > 0 || !options.hosts.empty())
      throw std::runtime_error(
          "run_sweep: --trace requires the in-process executor (no --procs/--hosts)");
    if (options.trace_path.empty())
      throw std::runtime_error("run_sweep: trace_mask set but trace_path empty");
  }

  const std::vector<SweepPoint> points = expand(scenario);
  const std::uint32_t seeds = std::max<std::uint32_t>(options.seeds, 1);
  const std::size_t n_jobs = points.size() * static_cast<std::size_t>(seeds);

  // Telemetry: caller-provided, or a local instance when only --progress
  // needs one. Null `tel` disables all accounting.
  obs::SweepTelemetry local_telemetry;
  obs::SweepTelemetry* tel = options.telemetry;
  if (tel == nullptr && options.progress) tel = &local_telemetry;

  SweepResult result;
  result.scenario = scenario.name;
  result.description = scenario.description;
  result.seeds = seeds;
  result.procs = options.procs;
  result.points.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    result.points[p].labels = points[p].labels;
    result.points[p].x = points[p].x;
    result.points[p].seeds.resize(seeds);
  }

  // Journal / resume: prefill slots from the on-disk records and hand the
  // executors a done-mask so only the holes run. Records are pure functions
  // of (scenario, point, ordinal), so prefilled and freshly-computed slots
  // are indistinguishable in the final artifacts.
  std::unique_ptr<JournalWriter> journal;
  std::vector<std::uint8_t> done;
  std::size_t prefilled = 0;
  if (!options.journal_path.empty()) {
    const JournalHeader expected = make_journal_header(scenario, seeds, points.size());
    if (options.resume) {
      JournalContents contents = read_journal(options.journal_path);
      if (const std::string why = journal_mismatch(contents.header, expected);
          !why.empty())
        throw std::runtime_error("--resume: journal " + options.journal_path +
                                 " does not belong to this sweep: " + why);
      done.assign(n_jobs, 0);
      for (RunRecord& rec : contents.records) {
        if (rec.point >= points.size() || rec.ordinal >= seeds)
          throw std::runtime_error("--resume: journal record identity out of range");
        const std::size_t job =
            static_cast<std::size_t>(rec.point) * seeds + rec.ordinal;
        if (done[job]) continue;  // a crashed run can journal a slot twice
        done[job] = 1;
        ++prefilled;
        result.points[rec.point].seeds[rec.ordinal] = std::move(rec);
      }
      // Truncate the torn tail (if any) and append after the last whole frame.
      journal = std::make_unique<JournalWriter>(options.journal_path,
                                                contents.valid_bytes);
    } else {
      journal = std::make_unique<JournalWriter>(options.journal_path, expected);
    }
  }

  // Records stream in carrying their own identity and land in their slot:
  // the merge order is a function of (point, ordinal) alone, never of
  // executor scheduling — that is what makes --procs N and --hosts a,b
  // bit-identical to --jobs 1. The journal sees each record exactly once,
  // before the in-memory slot, so a crash never loses an acknowledged slot.
  std::atomic<std::size_t> delivered{0};
  std::mutex journal_mu;
  auto sink = [&](RunRecord rec) {
    if (rec.point >= result.points.size() || rec.ordinal >= seeds)
      throw std::runtime_error("run_sweep: record identity out of range");
    if (journal) {
      std::lock_guard lock(journal_mu);
      journal->append(rec);
    }
    result.points[rec.point].seeds[rec.ordinal] = std::move(rec);
    delivered.fetch_add(1, std::memory_order_relaxed);
    if (tel != nullptr) tel->on_record_delivered();
  };

  if (tel != nullptr) tel->start(n_jobs, prefilled);

  // Decision-trace output: one JSONL stream shared by all worker threads.
  std::ofstream trace_out;
  std::mutex trace_mu;
  ExecutionPlan plan{scenario, points, seeds, options.share_workload,
                     done.empty() ? nullptr : &done};
  plan.trace_mask = options.trace_mask;
  plan.telemetry = tel;
  if (options.trace_mask != 0) {
    trace_out.open(options.trace_path, std::ios::trunc);
    if (!trace_out)
      throw std::runtime_error("run_sweep: cannot open trace file " +
                               options.trace_path);
    plan.trace_sink = [&](std::uint32_t point, std::uint32_t ordinal,
                          const obs::TraceRing& ring) {
      std::string lines;
      ring.emit_jsonl(lines, point, ordinal);
      std::lock_guard lock(trace_mu);
      trace_out << lines;
    };
  }
  // Record cache: journal-prefilled jobs were never dispatched, so resume
  // records took precedence before the cache could answer; the cache fills
  // the remaining holes. Installed process-wide for the sweep so run_job
  // consults it no matter which executor dispatches.
  std::unique_ptr<RunCache> cache;
  if (!options.cache_dir.empty()) cache = std::make_unique<RunCache>(options.cache_dir);
  ActiveCacheScope cache_scope(cache.get());

  const std::size_t holes = n_jobs - prefilled;
  if (holes > 0) {
    std::unique_ptr<Executor> executor = make_sweep_executor(options);
    try {
      std::unique_ptr<ProgressReporter> reporter;
      if (options.progress && tel != nullptr)
        reporter = std::make_unique<ProgressReporter>(*tel);
      result.jobs = executor->run(plan, sink);
    } catch (...) {
      // Everything acknowledged so far survives the failure — SIGINT and
      // worker-loss errors alike leave a journal --resume can continue.
      if (journal) journal->flush();
      throw;
    }
  } else {
    result.jobs = 1;  // fully resumed: nothing dispatched
  }
  if (journal) journal->flush();
  if (journal && tel != nullptr) {
    const JournalWriter::Stats js = journal->stats();
    tel->journal_stats(js.fsyncs, js.fsync_total_ms, js.fsync_max_ms);
  }
  if (cache && tel != nullptr) {
    // This process's own counters plus every dispatcher worker's
    // self-reported ones (piggybacked on heartbeats, so they are as fresh as
    // each worker's last beat).
    RunCache::Counters c = cache->counters();
    for (const obs::WorkerTelemetry& w : tel->workers()) {
      c.hits += w.reported.cache_hits;
      c.misses += w.reported.cache_misses;
      c.stale += w.reported.cache_stale;
      c.stores += w.reported.cache_stores;
    }
    tel->cache_stats(c.hits, c.misses, c.stale, c.stores);
  }

  if (delivered.load(std::memory_order_relaxed) != holes)
    throw std::runtime_error("run_sweep: executor lost records (" +
                             std::to_string(delivered.load()) + " of " +
                             std::to_string(holes) + " delivered)");

  for (PointResult& point : result.points) {
    std::vector<NamedValues> records;
    records.reserve(point.seeds.size());
    for (const RunRecord& r : point.seeds) records.push_back(r.values);
    point.aggregates = aggregate_records(records);
  }

  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace bng::runner
