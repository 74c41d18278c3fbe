#include "runner/adaptive.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "runner/cache.hpp"
#include "runner/executor.hpp"
#include "runner/journal.hpp"
#include "runner/record_codec.hpp"  // json_escape

namespace bng::runner {

namespace {

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// One group = one refine column: the dense-grid points sharing every
/// non-refine axis position, ordered by ascending refine-axis index.
struct Group {
  std::string label;                  ///< joined non-refine labels ("-" if none)
  std::vector<std::uint32_t> points;  ///< dense indices, one per refine value
};

std::vector<Group> build_groups(const Scenario& scenario,
                                const std::vector<SweepPoint>& points,
                                std::size_t refine_axis) {
  std::vector<std::size_t> sizes(scenario.axes.size());
  for (std::size_t a = 0; a < scenario.axes.size(); ++a)
    sizes[a] = scenario.axes[a].values.size();
  std::vector<std::size_t> strides(scenario.axes.size(), 1);
  for (std::size_t a = scenario.axes.size(); a-- > 1;)
    strides[a - 1] = strides[a] * sizes[a];

  // Group key = dense index with the refine-axis component zeroed; iterating
  // points in dense order visits each group's refine column in ascending
  // refine-index order, so the layout is deterministic.
  std::map<std::size_t, Group> by_key;
  for (std::uint32_t p = 0; p < points.size(); ++p) {
    const std::size_t ridx = (p / strides[refine_axis]) % sizes[refine_axis];
    const std::size_t key = p - ridx * strides[refine_axis];
    Group& g = by_key[key];
    if (g.points.empty()) {
      std::string label;
      for (std::size_t a = 0; a < points[p].labels.size(); ++a) {
        if (a == refine_axis) continue;
        if (!label.empty()) label += '/';
        label += points[p].labels[a];
      }
      g.label = label.empty() ? "-" : label;
    }
    g.points.push_back(p);
  }

  std::vector<Group> groups;
  groups.reserve(by_key.size());
  for (auto& [key, g] : by_key) groups.push_back(std::move(g));
  return groups;
}

}  // namespace

AdaptiveResult run_adaptive(const Scenario& scenario, const AdaptiveOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!scenario.refine)
    throw std::runtime_error("run_adaptive: scenario '" + scenario.name +
                             "' has no refine spec");
  if (options.sweep.trace_mask != 0)
    throw std::runtime_error("run_adaptive: --trace is not supported with adaptive "
                             "sweeps (use --dense)");
  const RefineSpec& spec = *scenario.refine;

  const std::vector<SweepPoint> points = expand(scenario);
  const std::uint32_t seeds = std::max<std::uint32_t>(options.sweep.seeds, 1);
  const std::size_t n_jobs = points.size() * static_cast<std::size_t>(seeds);

  std::size_t refine_axis = scenario.axes.size();
  for (std::size_t a = 0; a < scenario.axes.size(); ++a)
    if (scenario.axes[a].name == spec.axis) refine_axis = a;
  if (refine_axis == scenario.axes.size())
    throw std::runtime_error("run_adaptive: refine axis '" + spec.axis +
                             "' is not an axis of scenario '" + scenario.name + "'");
  const Axis& axis = scenario.axes[refine_axis];
  const std::vector<Group> groups = build_groups(scenario, points, refine_axis);

  obs::SweepTelemetry local_telemetry;
  obs::SweepTelemetry* tel = options.sweep.telemetry;
  if (tel == nullptr && options.sweep.progress) tel = &local_telemetry;

  // Every record lands in its dense-grid slot, exactly as in run_sweep; the
  // evaluated subset is assembled from these at the end.
  std::vector<RunRecord> slots(n_jobs);
  std::vector<std::uint8_t> have(n_jobs, 0);

  // Journal / resume against the *dense* grid identity: an adaptive run and
  // a dense run of the same scenario share one journal shape, so either can
  // resume the other's.
  std::unique_ptr<JournalWriter> journal;
  std::size_t prefilled = 0;
  if (!options.sweep.journal_path.empty()) {
    const JournalHeader expected = make_journal_header(scenario, seeds, points.size());
    if (options.sweep.resume) {
      JournalContents contents = read_journal(options.sweep.journal_path);
      if (const std::string why = journal_mismatch(contents.header, expected); !why.empty())
        throw std::runtime_error("--resume: journal " + options.sweep.journal_path +
                                 " does not belong to this sweep: " + why);
      for (RunRecord& rec : contents.records) {
        if (rec.point >= points.size() || rec.ordinal >= seeds)
          throw std::runtime_error("--resume: journal record identity out of range");
        const std::size_t job = static_cast<std::size_t>(rec.point) * seeds + rec.ordinal;
        if (have[job]) continue;
        have[job] = 1;
        ++prefilled;
        slots[job] = std::move(rec);
      }
      journal = std::make_unique<JournalWriter>(options.sweep.journal_path,
                                                contents.valid_bytes);
    } else {
      journal = std::make_unique<JournalWriter>(options.sweep.journal_path, expected);
    }
  }

  std::atomic<std::size_t> delivered{0};
  std::mutex journal_mu;
  auto sink = [&](RunRecord rec) {
    if (rec.point >= points.size() || rec.ordinal >= seeds)
      throw std::runtime_error("run_adaptive: record identity out of range");
    const std::size_t job = static_cast<std::size_t>(rec.point) * seeds + rec.ordinal;
    if (journal) {
      std::lock_guard lock(journal_mu);
      journal->append(rec);
    }
    slots[job] = std::move(rec);
    delivered.fetch_add(1, std::memory_order_relaxed);
    if (tel != nullptr) tel->on_record_delivered();
  };

  if (tel != nullptr) tel->start(n_jobs, prefilled);

  std::unique_ptr<RunCache> cache;
  if (!options.sweep.cache_dir.empty())
    cache = std::make_unique<RunCache>(options.sweep.cache_dir);
  ActiveCacheScope cache_scope(cache.get());

  const auto point_evaluated = [&](std::uint32_t p) {
    for (std::uint32_t o = 0; o < seeds; ++o)
      if (!have[static_cast<std::size_t>(p) * seeds + o]) return false;
    return true;
  };

  AdaptiveResult result;
  result.dense_points = points.size();
  result.dense_jobs = n_jobs;

  std::uint32_t width = 1;
  std::vector<std::uint8_t> done;
  const auto run_wave = [&](const std::vector<std::uint32_t>& wave) {
    done.assign(n_jobs, 1);
    std::size_t want = 0;
    for (const std::uint32_t p : wave)
      for (std::uint32_t o = 0; o < seeds; ++o) {
        const std::size_t job = static_cast<std::size_t>(p) * seeds + o;
        if (have[job]) continue;  // journal prefill or an earlier wave
        done[job] = 0;
        ++want;
      }
    if (want == 0) return;
    ExecutionPlan plan{scenario, points, seeds, options.sweep.share_workload, &done};
    plan.telemetry = tel;
    std::unique_ptr<Executor> executor = make_sweep_executor(options.sweep);
    try {
      width = std::max(width, executor->run(plan, sink));
    } catch (...) {
      if (journal) journal->flush();
      throw;
    }
    result.jobs_dispatched += want;
    for (const std::uint32_t p : wave)
      for (std::uint32_t o = 0; o < seeds; ++o)
        have[static_cast<std::size_t>(p) * seeds + o] = 1;
    if (options.sweep.progress && tel != nullptr)
      std::fprintf(stderr, "%s\n", tel->progress_line().c_str());
  };

  // Predicate: mean over seed ordinals of the named metric, against the
  // configured threshold. Summed in ordinal order, so adaptive and dense
  // evaluations of the same point agree bit-for-bit.
  const auto point_mean = [&](std::uint32_t p) {
    double sum = 0;
    for (std::uint32_t o = 0; o < seeds; ++o) {
      const RunRecord& rec = slots[static_cast<std::size_t>(p) * seeds + o];
      bool found = false;
      for (const auto& [name, value] : rec.values)
        if (name == spec.metric) {
          sum += value;
          found = true;
          break;
        }
      if (!found)
        throw std::runtime_error("run_adaptive: records of scenario '" + scenario.name +
                                 "' carry no metric '" + spec.metric + "'");
    }
    return sum / seeds;
  };
  const auto above = [&](std::uint32_t p) { return point_mean(p) > spec.threshold; };

  if (options.dense) {
    std::vector<std::uint32_t> all(points.size());
    for (std::uint32_t p = 0; p < points.size(); ++p) all[p] = p;
    run_wave(all);
  } else {
    // Coarse pass: `coarse` evenly spaced refine indices per group, endpoints
    // always included.
    const std::size_t n_refine = axis.values.size();
    const std::uint32_t coarse =
        std::max<std::uint32_t>(2, std::min<std::uint32_t>(
                                       std::max<std::uint32_t>(spec.coarse, 2),
                                       static_cast<std::uint32_t>(n_refine)));
    std::vector<std::size_t> coarse_idx;
    if (n_refine <= coarse) {
      for (std::size_t i = 0; i < n_refine; ++i) coarse_idx.push_back(i);
    } else {
      for (std::uint32_t i = 0; i < coarse; ++i) {
        const std::size_t idx = static_cast<std::size_t>(
            std::llround(static_cast<double>(i) * static_cast<double>(n_refine - 1) /
                         static_cast<double>(coarse - 1)));
        if (coarse_idx.empty() || coarse_idx.back() != idx) coarse_idx.push_back(idx);
      }
    }
    std::vector<std::uint32_t> wave;
    for (const Group& g : groups)
      for (const std::size_t idx : coarse_idx) wave.push_back(g.points[idx]);
    run_wave(wave);

    // Bisection: every evaluated-adjacent bracket whose predicate flips and
    // whose indices are not yet adjacent gets its midpoint (by index — pure
    // integer arithmetic, so the trajectory is deterministic). All brackets
    // of a round run as one wave to keep the executor saturated.
    for (;;) {
      wave.clear();
      for (const Group& g : groups) {
        std::vector<std::size_t> ev;
        for (std::size_t i = 0; i < g.points.size(); ++i)
          if (point_evaluated(g.points[i])) ev.push_back(i);
        for (std::size_t k = 0; k + 1 < ev.size(); ++k) {
          const std::size_t lo = ev[k], hi = ev[k + 1];
          if (hi - lo <= 1) continue;
          if (above(g.points[lo]) == above(g.points[hi])) continue;
          if (spec.tolerance > 0 &&
              axis.values[hi].x - axis.values[lo].x <= spec.tolerance)
            continue;
          wave.push_back(g.points[(lo + hi) / 2]);
        }
      }
      if (wave.empty()) break;
      run_wave(wave);
    }
  }

  if (journal) journal->flush();
  if (journal && tel != nullptr) {
    const JournalWriter::Stats js = journal->stats();
    tel->journal_stats(js.fsyncs, js.fsync_total_ms, js.fsync_max_ms);
  }
  if (cache && tel != nullptr) {
    RunCache::Counters c = cache->counters();
    for (const obs::WorkerTelemetry& w : tel->workers()) {
      c.hits += w.reported.cache_hits;
      c.misses += w.reported.cache_misses;
      c.stale += w.reported.cache_stale;
      c.stores += w.reported.cache_stores;
    }
    tel->cache_stats(c.hits, c.misses, c.stale, c.stores);
  }

  if (delivered.load(std::memory_order_relaxed) != result.jobs_dispatched)
    throw std::runtime_error("run_adaptive: executor lost records (" +
                             std::to_string(delivered.load()) + " of " +
                             std::to_string(result.jobs_dispatched) + " delivered)");

  // Frontier scan: per group, every evaluated-adjacent pair where the
  // predicate flips becomes a bracket row. Groups with no flip get one
  // found=false row so every surface cell is represented. Pure function of
  // the evaluated records — the dense oracle runs the identical scan.
  for (const Group& g : groups) {
    std::vector<std::size_t> ev;
    for (std::size_t i = 0; i < g.points.size(); ++i)
      if (point_evaluated(g.points[i])) ev.push_back(i);
    bool any = false;
    for (std::size_t k = 0; k + 1 < ev.size(); ++k) {
      const std::size_t lo = ev[k], hi = ev[k + 1];
      const double lo_v = point_mean(g.points[lo]);
      const double hi_v = point_mean(g.points[hi]);
      if ((lo_v > spec.threshold) == (hi_v > spec.threshold)) continue;
      FrontierRow row;
      row.group = g.label;
      row.found = true;
      row.lo_x = axis.values[lo].x;
      row.hi_x = axis.values[hi].x;
      row.lo_value = lo_v;
      row.hi_value = hi_v;
      row.crossover_x =
          row.lo_x + (spec.threshold - lo_v) * (row.hi_x - row.lo_x) / (hi_v - lo_v);
      result.frontier.push_back(std::move(row));
      any = true;
    }
    if (!any) {
      FrontierRow row;
      row.group = g.label;
      result.frontier.push_back(std::move(row));
    }
  }

  // Assemble the evaluated subset as a SweepResult (ascending dense order),
  // so the standard emitters produce rows that are a strict subset of the
  // dense sweep's.
  result.sweep.scenario = scenario.name;
  result.sweep.description = scenario.description;
  result.sweep.seeds = seeds;
  result.sweep.jobs = width;
  result.sweep.procs = options.sweep.procs;
  for (std::uint32_t p = 0; p < points.size(); ++p) {
    if (!point_evaluated(p)) continue;
    result.evaluated.push_back(p);
    PointResult pr;
    pr.labels = points[p].labels;
    pr.x = points[p].x;
    pr.seeds.reserve(seeds);
    std::vector<NamedValues> records;
    records.reserve(seeds);
    for (std::uint32_t o = 0; o < seeds; ++o) {
      pr.seeds.push_back(slots[static_cast<std::size_t>(p) * seeds + o]);
      records.push_back(pr.seeds.back().values);
    }
    pr.aggregates = aggregate_records(records);
    result.sweep.points.push_back(std::move(pr));
  }

  if (tel != nullptr)
    tel->adaptive_stats(result.dense_points, result.dense_jobs,
                        result.evaluated.size(), result.jobs_dispatched);

  result.sweep.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

std::string frontier_json(const Scenario& scenario, const AdaptiveResult& result) {
  const RefineSpec& spec = *scenario.refine;
  std::string j = "{\n";
  j += "  \"scenario\": \"" + json_escape(scenario.name) + "\",\n";
  j += "  \"axis\": \"" + json_escape(spec.axis) + "\",\n";
  j += "  \"metric\": \"" + json_escape(spec.metric) + "\",\n";
  j += "  \"threshold\": " + fmt_double(spec.threshold) + ",\n";
  j += "  \"seeds\": " + std::to_string(result.sweep.seeds) + ",\n";
  j += "  \"frontier\": [\n";
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const FrontierRow& row = result.frontier[i];
    j += "    {\"group\": \"" + json_escape(row.group) + "\", ";
    if (row.found) {
      j += "\"found\": true, \"lo_x\": " + fmt_double(row.lo_x) +
           ", \"hi_x\": " + fmt_double(row.hi_x) +
           ", \"crossover_x\": " + fmt_double(row.crossover_x) +
           ", \"lo_value\": " + fmt_double(row.lo_value) +
           ", \"hi_value\": " + fmt_double(row.hi_value) + "}";
    } else {
      j += "\"found\": false}";
    }
    j += i + 1 < result.frontier.size() ? ",\n" : "\n";
  }
  j += "  ]\n}\n";
  return j;
}

std::string frontier_csv(const AdaptiveResult& result) {
  std::string csv = "group,found,lo_x,hi_x,crossover_x,lo_value,hi_value\n";
  for (const FrontierRow& row : result.frontier) {
    csv += row.group;
    if (row.found) {
      csv += ",true";
      for (double v : {row.lo_x, row.hi_x, row.crossover_x, row.lo_value, row.hi_value}) {
        csv += ',';
        csv += fmt_double(v);
      }
    } else {
      csv += ",false,,,,,";
    }
    csv += '\n';
  }
  return csv;
}

}  // namespace bng::runner
