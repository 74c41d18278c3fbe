// bngbench: one phase of a perfbench run, driven through libbng's public
// runner API the same way `ngsim` drives it. perfbench/run.py starts every
// phase in a fresh process (so peak RSS and rusage never carry over) and
// folds the one JSON line each phase prints into the benchmark's metrics.
//
//   bngbench setup --scenario S --seed N
//       make_scenario + expand + every distinct shared workload pool, timed.
//   bngbench sweep --scenario S --seed N (--jobs J | --procs P) --reps R --out DIR
//       run_sweep + the three artifacts, R times; wall, CPU (self and
//       reaped children) and peak RSS.
//   bngbench jobs --scenario S --seed N --passes K [--trace --out DIR]
//                 [--ref-points P,Q,...]
//       every job serially through runner::run_job, K passes. With --trace,
//       one pass where each untraced job is followed by a traced replica of
//       run_job whose calls into each module sit inside spans; the spans go
//       to DIR/spans.json. --ref-points runs those points at the default seed,
//       after the timed jobs, for the digest gate.
//
// The workload seed reaches every job through a benchmark-owned wrapper
// scenario, "perfbench/<S>", whose seed_base is the builtin's plus
// kSeedStride * seed. `--procs` workers are forked without exec, so they
// inherit the registration: a seed_base override on the builtin itself would
// be lost, because the worker handshake ships only the scenario name and
// knobs and the worker re-runs make_scenario.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "metrics/metrics.hpp"
#include "ng/ng_node.hpp"
#include "runner/digest.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/record.hpp"
#include "runner/record_codec.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace bng;
using Clock = std::chrono::steady_clock;

/// Seed 0 leaves the builtin's seed_base untouched, so the default seed
/// reproduces `ngsim --scenario S` record for record.
constexpr std::uint64_t kSeedStride = 1000;

/// NgNode derives its leader key as PrivateKey::from_seed(kNgKeySeed + id)
/// (src/ng/ng_node.cpp). The crypto probe re-derives the same keys and checks
/// them against the node's published key and the microblocks' signatures.
constexpr std::uint64_t kNgKeySeed = 0x6e670000ull;

/// Blocks per job whose header the crypto probe signs again.
constexpr std::size_t kCryptoProbeBlocks = 4;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string mode;
  std::string scenario;
  std::string out;
  std::uint64_t seed = 0;
  std::uint32_t jobs = 0;
  std::uint32_t procs = 0;
  std::uint32_t reps = 1;
  std::uint32_t passes = 1;
  std::vector<std::uint32_t> ref_points;
  bool trace = false;
};

std::vector<std::uint32_t> parse_points(const std::string& list) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    out.push_back(static_cast<std::uint32_t>(std::stoul(list.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: bngbench setup|sweep|jobs --scenario S ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--scenario") a.scenario = value;
    else if (flag == "--out") a.out = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--jobs") a.jobs = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--procs") a.procs = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--reps") a.reps = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--passes") a.passes = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--ref-points") a.ref_points = parse_points(value);
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.scenario.empty()) throw std::runtime_error("--scenario is required");
  if (a.reps == 0 || a.passes == 0) throw std::runtime_error("--reps/--passes must be >= 1");
  return a;
}

std::string register_wrapper(const std::string& builtin, std::uint64_t seed) {
  std::string name = "perfbench/" + builtin;
  runner::register_scenario(
      name, "perfbench seeded wrapper of " + builtin,
      [builtin, seed](const runner::RunKnobs& knobs) {
        std::optional<runner::Scenario> s = runner::make_scenario(builtin, knobs);
        if (!s) throw std::runtime_error("unknown scenario " + builtin);
        s->seed_base += kSeedStride * seed;
        return *std::move(s);
      });
  return name;
}

runner::Scenario make(const std::string& name) {
  std::optional<runner::Scenario> s = runner::make_scenario(name, runner::RunKnobs{});
  if (!s) throw std::runtime_error("unknown scenario " + name);
  return *std::move(s);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string record_hash(const std::string& bytes) {
  runner::Digest d;
  d.bytes(bytes.data(), bytes.size());
  return hex64(d.h);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

// --- Minimal JSON output -----------------------------------------------------

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) { return "\"" + runner::json_escape(s) + "\""; }

template <class T, class F>
std::string array(const std::vector<T>& items, F&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += render(items[i]);
  }
  return out + "]";
}

std::string nums(const std::vector<double>& v) { return array(v, num); }
std::string strs(const std::vector<std::string>& v) { return array(v, str); }

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  long parent = -1;
  long job = -1;
  /// Probe spans time extra calls the job itself does not make (metric
  /// sub-functions, crypto per-call costs); the job's own wall excludes them.
  bool probe = false;
};

/// In-memory span recorder: spans nest by call order, and each one carries
/// the job it belongs to. Written out once, at the end of the traced pass.
class Spans {
 public:
  template <class F>
  void time(const char* name, long job, F&& body, bool probe = false) {
    const long parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now(), 0, parent, job, probe});
    open_.push_back(static_cast<long>(spans_.size()) - 1);
    body();
    spans_[static_cast<std::size_t>(open_.back())].end = now();
    open_.pop_back();
  }

  template <class F>
  void probe(const char* name, long job, F&& body) {
    time(name, job, std::forward<F>(body), true);
  }

  [[nodiscard]] std::string json() const {
    return array(spans_, [](const Span& s) {
      return "[" + str(s.name) + "," + num(s.start) + "," + num(s.end) + "," +
             std::to_string(s.parent) + "," + std::to_string(s.job) + "," +
             (s.probe ? "1" : "0") + "]";
    });
  }

 private:
  double now() const { return seconds_between(t0_, Clock::now()); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<long> open_;
};

// --- Shared workload pools -----------------------------------------------------

using Pool = std::shared_ptr<const sim::PrebuiltWorkload>;

/// One pool per distinct sim::workload_digest, as the executors share them.
class Pools {
 public:
  Pools(const std::vector<runner::SweepPoint>& points, Spans* spans) {
    for (const runner::SweepPoint& p : points) {
      Pool& slot = pools_[sim::workload_digest(p.config)];
      if (slot) continue;
      if (spans != nullptr)
        spans->time("sim.workload_build", -1,
                    [&] { slot = sim::build_shared_workload(p.config); });
      else
        slot = sim::build_shared_workload(p.config);
    }
  }
  [[nodiscard]] Pool of(const runner::SweepPoint& p) const {
    return pools_.at(sim::workload_digest(p.config));
  }

 private:
  std::unordered_map<std::uint64_t, Pool> pools_;
};

/// The order serial passes visit the points in: a stride coprime with the
/// point count. Neighbouring points share most axis values, so the jobs of one
/// kind (say every Bitcoin point) are spread over the whole pass instead of
/// sharing one stretch of the machine's speed drift. Records do not depend on
/// the order.
std::vector<std::uint32_t> visit_order(std::uint32_t n) {
  std::uint32_t stride = std::max<std::uint32_t>(1, n * 5 / 8);
  while (std::gcd(stride, n) != 1) ++stride;
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i)
    order[i] = static_cast<std::uint32_t>(std::uint64_t{i} * stride % n);
  return order;
}

// --- Phases --------------------------------------------------------------------

int run_setup(const Args& a) {
  const std::string name = register_wrapper(a.scenario, a.seed);
  const auto t0 = Clock::now();
  const runner::Scenario sc = make(name);
  const std::vector<runner::SweepPoint> points = runner::expand(sc);
  const Pools pools(points, nullptr);
  const double setup_s = seconds_between(t0, Clock::now());
  std::printf("{\"setup_s\":%s}\n", num(setup_s).c_str());
  return 0;
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long max_rss_kb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru.ru_maxrss;
}

std::vector<std::string> record_hashes(const runner::SweepResult& res) {
  std::vector<std::string> out;
  for (const runner::PointResult& p : res.points)
    for (const runner::RunRecord& r : p.seeds) out.push_back(record_hash(runner::encode_record(r)));
  return out;
}

void write_artifacts(const runner::SweepResult& res, const std::string& dir) {
  write_file(dir + "/sweep.json", runner::to_json(res));
  write_file(dir + "/aggregate.csv", runner::aggregate_csv(res));
  write_file(dir + "/seeds.csv", runner::seeds_csv(res));
}

int run_sweep_phase(const Args& a) {
  if (a.out.empty()) throw std::runtime_error("sweep needs --out");
  const runner::Scenario sc = make(register_wrapper(a.scenario, a.seed));
  runner::SweepOptions opt;
  opt.jobs = a.jobs;
  opt.procs = a.procs;  // empty worker_argv: fork without exec

  std::vector<double> walls, cpus;
  std::vector<std::vector<std::string>> reps;
  std::uint32_t width = 0;
  for (std::uint32_t r = 0; r < a.reps; ++r) {
    const double cpu0 = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
    const auto t0 = Clock::now();
    const runner::SweepResult res = runner::run_sweep(sc, opt);
    write_artifacts(res, a.out);
    walls.push_back(seconds_between(t0, Clock::now()));
    cpus.push_back(cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN) - cpu0);
    width = res.jobs;
    reps.push_back(record_hashes(res));
  }
  std::printf(
      "{\"walls\":%s,\"cpu\":%s,\"width\":%u,\"rss_self_kb\":%ld,\"rss_children_kb\":%ld,"
      "\"records\":%s}\n",
      nums(walls).c_str(), nums(cpus).c_str(), width, max_rss_kb(RUSAGE_SELF),
      max_rss_kb(RUSAGE_CHILDREN), array(reps, strs).c_str());
  return 0;
}

/// What one traced job did, from public accessors (counts, not times).
struct JobCounts {
  long job = 0;
  std::uint64_t events = 0;
  std::uint64_t blocks = 0;
  std::uint64_t pow_blocks = 0;
  std::uint64_t micro_blocks = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double main_chain_frac = 0;
  std::uint64_t ng_nodes = 0;
  std::uint64_t ng_microblocks = 0;
  std::uint64_t record_bytes = 0;
  std::uint64_t probe_failures = 0;
};

std::string json(const JobCounts& c) {
  return "{\"job\":" + std::to_string(c.job) + ",\"events\":" + std::to_string(c.events) +
         ",\"blocks\":" + std::to_string(c.blocks) +
         ",\"pow_blocks\":" + std::to_string(c.pow_blocks) +
         ",\"micro_blocks\":" + std::to_string(c.micro_blocks) +
         ",\"messages\":" + std::to_string(c.messages) +
         ",\"bytes\":" + std::to_string(c.bytes) +
         ",\"main_chain_frac\":" + num(c.main_chain_frac) +
         ",\"ng_nodes\":" + std::to_string(c.ng_nodes) +
         ",\"ng_microblocks\":" + std::to_string(c.ng_microblocks) +
         ",\"record_bytes\":" + std::to_string(c.record_bytes) +
         ",\"probe_failures\":" + std::to_string(c.probe_failures) + "}";
}

/// Re-time the metric sub-functions compute_metrics shares its work between,
/// and check each against the report it must reproduce.
void metric_probes(Spans& sp, long job, const sim::Experiment& exp,
                   const metrics::MetricsReport& report, JobCounts& c) {
  double consensus = 0, prune = 0, win = 0;
  std::vector<double> delays;
  sp.probe("metrics.consensus_delay", job,
           [&] { consensus = metrics::consensus_delay(exp, 0.9, 0.9); });
  sp.probe("metrics.propagation_delays", job,
           [&] { delays = metrics::propagation_delays(exp); });
  sp.probe("metrics.time_to_prune", job, [&] { prune = metrics::time_to_prune(exp, 90); });
  sp.probe("metrics.time_to_win", job, [&] { win = metrics::time_to_win(exp, 90); });
  if (consensus != report.consensus_delay_s) ++c.probe_failures;
  if (delays != report.prop_delay_samples) ++c.probe_failures;
  if (prune != report.time_to_prune_p90_s) ++c.probe_failures;
  if (win != report.time_to_win_p90_s) ++c.probe_failures;
}

/// Per-call crypto cost on this workload's own keys: re-derive the miners'
/// NG leader keys and re-sign the first generated headers. For NG nodes the
/// derived key must equal the published one, and a re-signed microblock
/// header must reproduce the signature it carries (signing is
/// deterministic).
void crypto_probes(Spans& sp, long job, const sim::Experiment& exp, JobCounts& c) {
  const auto& generated = exp.trace().generated();
  for (std::size_t i = 0; i < generated.size() && i < kCryptoProbeBlocks; ++i) {
    const auto& g = generated[i];
    const crypto::PrivateKey key = crypto::PrivateKey::from_seed(kNgKeySeed + g.miner);
    crypto::PublicKey pub;
    sp.probe("crypto.pubkey", job, [&] { pub = key.public_key(); });
    crypto::Signature sig;
    const Hash256 msg = g.block->header().signing_hash();
    sp.probe("crypto.sign", job, [&] { sig = crypto::sign(key, msg); });
    const auto* ng = dynamic_cast<const ng::NgNode*>(exp.nodes()[g.miner].get());
    if (ng != nullptr && !(pub == ng->leader_pubkey())) ++c.probe_failures;
    const auto& carried = g.block->header().signature;
    if (ng != nullptr && carried && !(*carried == sig)) ++c.probe_failures;
  }
}

/// runner::run_job, call for call, with a span around each call into a
/// module. Returns the encoded record.
std::string traced_job(Spans& sp, long job, const runner::Scenario& sc,
                       const runner::SweepPoint& point, std::uint32_t p, Pool pool,
                       runner::RunRecord& rec, JobCounts& c) {
  std::string bytes;
  sp.time("job", job, [&] {
    sim::ExperimentConfig cfg = point.config;
    cfg.seed = runner::job_seed(sc.seed_base, p, 0);
    cfg.shared_workload = std::move(pool);
    if (sc.run) cfg.shards = 1;
    auto exp = std::make_unique<sim::Experiment>(std::move(cfg));
    sp.time("sim.deploy_build", job, [&] { exp->build(); });
    runner::NamedValues hook_values;
    sp.time("sim.run", job, [&] {
      if (sc.run) sc.run(*exp, hook_values);
      else exp->run();
    });
    metrics::MetricsReport report;
    runner::NamedValues values;
    sp.time("metrics.compute", job, [&] {
      report = metrics::compute_metrics(*exp);
      values = metrics::to_named_values(report);
    });
    values.insert(values.end(), hook_values.begin(), hook_values.end());
    sp.time("metrics.extra", job, [&] {
      if (sc.extra) sc.extra(*exp, values);
    });
    sp.time("runner.extract_record", job,
            [&] { rec = runner::extract_record(*exp, std::move(values), p, 0); });
    sp.time("runner.record_encode", job, [&] { bytes = runner::encode_record(rec); });

    metric_probes(sp, job, *exp, report, c);
    crypto_probes(sp, job, *exp, c);

    c.events = exp->events_executed();
    c.blocks = exp->trace().generated().size();
    c.pow_blocks = exp->trace().pow_blocks();
    c.micro_blocks = exp->trace().micro_blocks();
    c.messages = exp->network().messages_sent();
    c.bytes = exp->network().bytes_sent();
    c.main_chain_frac = report.mining_power_utilization;
    for (const auto& node : exp->nodes())
      if (const auto* ng = dynamic_cast<const ng::NgNode*>(node.get())) {
        ++c.ng_nodes;
        c.ng_microblocks += ng->microblocks_generated();
      }
    c.record_bytes = bytes.size();
    sp.time("sim.teardown", job, [&] { exp.reset(); });
  });
  return bytes;
}

int run_jobs_phase(const Args& a) {
  const runner::Scenario sc = make(register_wrapper(a.scenario, a.seed));
  const std::vector<runner::SweepPoint> points = runner::expand(sc);
  const Pools pools(points, nullptr);

  auto timed_job = [&](std::uint32_t p, double& wall) {
    const auto t0 = Clock::now();
    runner::RunRecord rec = runner::run_job(sc, points[p], p, 0, pools.of(points[p]));
    wall = seconds_between(t0, Clock::now());
    return rec;
  };

  const auto n = static_cast<std::uint32_t>(points.size());
  const std::vector<std::uint32_t> order = visit_order(n);
  // Per pass, job walls and record hashes by point index.
  std::vector<std::vector<double>> walls;
  std::vector<std::vector<std::string>> passes;
  std::vector<std::string> digests(n);
  std::string traced_json;
  if (!a.trace) {
    for (std::uint32_t pass = 0; pass < a.passes; ++pass) {
      walls.emplace_back(n);
      passes.emplace_back(n);
      for (const std::uint32_t p : order) {
        const runner::RunRecord rec = timed_job(p, walls.back()[p]);
        passes.back()[p] = record_hash(runner::encode_record(rec));
        digests[p] = hex64(rec.digest);
      }
    }
  } else {
    if (a.out.empty()) throw std::runtime_error("jobs --trace needs --out");
    // The traced replica gets its own scenario and pools, built inside spans,
    // so set-up work shows as the runner and sim layers it belongs to.
    Spans sp;
    std::optional<runner::Scenario> tsc;
    std::vector<runner::SweepPoint> tpoints;
    sp.time("runner.expand", -1, [&] {
      tsc = make("perfbench/" + a.scenario);
      tpoints = runner::expand(*tsc);
    });
    const Pools tpools(tpoints, &sp);

    runner::SweepResult result;
    result.scenario = tsc->name;
    result.description = tsc->description;
    result.points.resize(n);
    std::vector<std::string> untraced(n), traced(n);
    std::vector<JobCounts> counts;
    walls.emplace_back(n);
    for (const std::uint32_t p : order) {
      // Interleaved, so both sides of trace.overhead_frac see the same
      // process state.
      const runner::RunRecord rec = timed_job(p, walls.back()[p]);
      untraced[p] = record_hash(runner::encode_record(rec));
      digests[p] = hex64(rec.digest);

      JobCounts c;
      c.job = p;
      runner::RunRecord trec;
      traced[p] = record_hash(
          traced_job(sp, p, *tsc, tpoints[p], p, tpools.of(tpoints[p]), trec, c));
      counts.push_back(c);
      runner::PointResult& pr = result.points[p];
      pr.labels = tpoints[p].labels;
      pr.x = tpoints[p].x;
      pr.seeds.push_back(std::move(trec));
    }
    passes.push_back(untraced);
    sp.time("runner.emit", -1, [&] {
      for (runner::PointResult& pr : result.points)
        pr.aggregates = runner::aggregate_records({pr.seeds.front().values});
      write_artifacts(result, a.out);
    });
    write_file(a.out + "/spans.json", sp.json() + "\n");
    traced_json = ",\"traced\":" + strs(traced) + ",\"counts\":" +
                  array(counts, [](const JobCounts& c) { return json(c); });
  }

  std::string ref_json;
  if (!a.ref_points.empty()) {
    // The default seed is the builtin itself.
    const runner::Scenario base = make(a.scenario);
    const std::vector<runner::SweepPoint> base_points = runner::expand(base);
    std::vector<std::string> ref_digests;
    for (const std::uint32_t p : a.ref_points) {
      if (p >= base_points.size()) throw std::runtime_error("--ref-points out of range");
      const runner::RunRecord rec = runner::run_job(
          base, base_points[p], p, 0, sim::build_shared_workload(base_points[p].config));
      ref_digests.push_back(hex64(rec.digest));
    }
    ref_json = ",\"ref_digests\":" + strs(ref_digests);
  }

  std::printf("{\"walls\":%s,\"digests\":%s,\"records\":%s%s%s}\n",
              array(walls, nums).c_str(), strs(digests).c_str(), array(passes, strs).c_str(),
              traced_json.c_str(), ref_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "setup") return run_setup(a);
    if (a.mode == "sweep") return run_sweep_phase(a);
    if (a.mode == "jobs") return run_jobs_phase(a);
    throw std::runtime_error("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bngbench: %s\n", e.what());
    return 1;
  }
}
