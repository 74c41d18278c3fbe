// Simulation-core benchmark harness.
//
// Measures the primitives that bound experiment throughput (event queue,
// network fast path) plus a fig7-style end-to-end run, and emits the results
// as machine-readable JSON so the perf trajectory is recorded PR over PR.
//
// A determinism digest (FNV-1a over the generated-block trace and the final
// metrics) is included: core refactors must keep it bit-identical for a
// given seed, or they changed simulation semantics, not just speed.
//
// Benchmark shapes mirror the simulator's real queue profile: during a
// paper-scale run the pending-event working set stays in the thousands
// (in-flight messages bounded by links x link queue depth), so the headline
// queue metric is steady-state churn at a bounded working set, not a bulk
// preload. The bulk case is kept as a stress metric.
//
// Knobs (environment):
//   REPRO_NODES       - node count for the end-to-end run    (default 200)
//   REPRO_BLOCKS      - counted blocks for the end-to-end    (default 20)
//   CORE_BENCH_EVENTS - op count for queue/network benches   (default 1000000)
//   CORE_BENCH_OUT    - output path                          (default bench_core_out.json)
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core_bench_util.hpp"
#include "metrics/metrics.hpp"
#include "net/event_queue.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/experiment.hpp"
#include "sim/trace.hpp"

namespace {

using namespace bng;
using bench::BenchMessage;
using bench::BenchSink;
using bench::lcg_next;

std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  auto parsed = std::strtoul(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::uint32_t>(parsed) : fallback;
}

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// FNV-1a, the digest accumulator for the determinism check.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

struct Result {
  std::string name;
  double wall_s = 0;
  double items_per_sec = 0;
  const char* unit = "items/s";
  std::string extra;  // pre-formatted JSON fields, may be empty
};

// --- Event queue micro-benchmarks -------------------------------------------

/// Steady-state churn: a bounded working set of self-rescheduling events,
/// the shape of a live simulation (every fire schedules a successor). The
/// callback carries a 32-byte capture like Network's delivery lambda
/// (this + from + to + a shared_ptr), the dominant callback of a real run.
Result bench_event_queue_steady(std::uint32_t working_set, std::uint32_t n_events) {
  struct State {
    net::EventQueue q;
    std::uint64_t lcg = 12345;
    std::uint64_t fired = 0;
  };
  struct Tick {
    State* st;
    std::shared_ptr<const int> payload;  // mimics the MessagePtr capture
    std::uint64_t msg_tag;
    void operator()() const {
      st->fired += 1 + (msg_tag & 0);
      const double delay = 1.0 + static_cast<double>(lcg_next(st->lcg) >> 52);
      st->q.schedule_in(delay, Tick{st, payload, msg_tag + 1});
    }
  };

  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    State st;
    const auto payload = std::make_shared<const int>(7);
    for (std::uint32_t i = 0; i < working_set; ++i) {
      const double at = static_cast<double>(lcg_next(st.lcg) >> 52);
      st.q.schedule_at(at, Tick{&st, payload, i});
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (st.fired < n_events) st.q.run_until(st.q.now() + 4096.0);
    const double wall = wall_seconds(t0);
    best = std::min(best, wall / static_cast<double>(st.fired));
  }
  return {"event_queue_steady", best * n_events, 1.0 / best, "events/s", ""};
}

/// Schedule/cancel pairs plus the deferred cost of draining the tombstones:
/// the full lifecycle of a cancelled timer (protocol timer-reset pattern).
Result bench_event_queue_cancel(std::uint32_t working_set, std::uint32_t n_pairs) {
  const std::uint32_t rounds = n_pairs / working_set;
  double best = 1e100;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    net::EventQueue q;
    std::vector<std::uint64_t> ids(working_set);
    std::uint64_t fired = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t r = 0; r < rounds; ++r) {
      const double base = static_cast<double>(r + 1) * 10.0;
      for (std::uint32_t i = 0; i < working_set; ++i)
        ids[i] = q.schedule_at(base + static_cast<double>(i % 7), [&fired] { ++fired; });
      for (std::uint32_t i = 0; i < working_set; ++i) q.cancel(ids[i]);
    }
    q.run_all();  // all tombstones: measures lazy-deletion drain too
    best = std::min(best, wall_seconds(t0));
    sink += fired;
  }
  if (sink != 0) std::abort();  // every event was cancelled
  const double pairs = static_cast<double>(rounds) * working_set;
  return {"event_queue_cancel", best, pairs / best, "pairs/s", ""};
}

/// Bulk preload stress: the whole event population scheduled before any pop.
/// Dominated by deep heap sifts on a cache-cold array; kept as the worst-case
/// bound, not the representative number.
Result bench_event_queue_bulk(std::uint32_t n_events) {
  double best = 1e100;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    net::EventQueue q;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t fired = 0;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < n_events; ++i) {
      const double at = static_cast<double>((i * 2654435761u) % 100000);
      q.schedule_at(at, [&fired, &acc, i] {
        ++fired;
        acc += i;
      });
    }
    q.run_all();
    best = std::min(best, wall_seconds(t0));
    sink += fired + acc;
  }
  if (sink == 0) std::abort();
  return {"event_queue_bulk", best, n_events / best, "events/s", ""};
}

// --- Network micro-benchmarks ------------------------------------------------

/// Timed send() only, on the paper-scale 1000-node overlay: edge resolution,
/// link-serialization bookkeeping, delivery scheduling. Sends run in bursts
/// with an untimed drain between them, the interleaving a live simulation
/// exhibits (pop cost is the queue benches' job).
Result bench_network_send(std::uint32_t n_sends) {
  constexpr std::uint32_t kNodes = 1000;
  constexpr std::uint32_t kBurst = 4096;
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(42);
    net::EventQueue q;
    net::Topology topo = net::Topology::random(kNodes, 5, rng);
    net::Network net(q, topo, net::LatencyModel::constant(0.05),
                     net::LinkParams{100'000.0, 40}, rng);
    std::vector<BenchSink> sinks(kNodes);
    for (NodeId i = 0; i < kNodes; ++i) net.attach(i, &sinks[i]);
    const auto msg = std::make_shared<BenchMessage>();

    double timed = 0;
    std::uint32_t sent = 0;
    NodeId a = 0;
    std::size_t k = 0;
    while (sent < n_sends) {
      const auto t0 = std::chrono::steady_clock::now();
      std::uint32_t burst = 0;
      while (burst < kBurst && sent < n_sends) {
        const auto& peers = net.peers(a);
        if (k < peers.size()) {
          net.send(a, peers[k], msg);
          ++sent;
          ++burst;
          ++k;
        } else {
          k = 0;
          a = (a + 1) % kNodes;
        }
      }
      timed += wall_seconds(t0);
      q.run_all();  // untimed drain
    }
    best = std::min(best, timed);
  }
  return {"network_send", best, static_cast<double>(n_sends) / best, "sends/s", ""};
}

/// Gossip burst: every node sends one inv-sized message to each neighbour,
/// then the queue drains. End-to-end cost of a broadcast wave.
Result bench_network_flood(std::uint32_t n_nodes, std::uint32_t rounds) {
  const std::uint32_t degree = std::min(5u, n_nodes > 1 ? n_nodes - 1 : 1u);
  double best = 1e100;
  std::uint64_t total_msgs = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(42);
    net::EventQueue q;
    net::Topology topo = net::Topology::random(n_nodes, degree, rng);
    net::Network net(q, topo, net::LatencyModel::constant(0.05),
                     net::LinkParams{100'000.0, 40}, rng);
    std::vector<BenchSink> sinks(n_nodes);
    for (NodeId i = 0; i < n_nodes; ++i) net.attach(i, &sinks[i]);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t r = 0; r < rounds; ++r) {
      for (NodeId a = 0; a < n_nodes; ++a) {
        auto msg = std::make_shared<BenchMessage>();
        for (NodeId b : net.peers(a)) net.send(a, b, msg);
      }
      q.run_all();
    }
    best = std::min(best, wall_seconds(t0));
    total_msgs = net.messages_sent();
  }
  return {"network_flood", best, static_cast<double>(total_msgs) / best, "messages/s", ""};
}

// --- End-to-end: fig7-style propagation run ---------------------------------

Result bench_fig7_e2e(std::uint32_t n_nodes, std::uint32_t n_blocks) {
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.max_block_size = 60'000;
  cfg.params.block_interval = 60'000.0 / (1'000'000.0 / 600.0);  // fig7 load
  cfg.num_nodes = n_nodes;
  cfg.min_degree = std::min(cfg.min_degree, n_nodes > 1 ? n_nodes - 1 : 1u);
  cfg.tx_size = 476;
  cfg.target_blocks = n_blocks;
  cfg.seed = 701;

  // The clock covers both phases a user pays for: the simulation and the
  // metrics pass over its result.
  const auto t0 = std::chrono::steady_clock::now();
  sim::Experiment exp(cfg);
  exp.run();
  const double run_s = wall_seconds(t0);
  const auto t1 = std::chrono::steady_clock::now();
  const auto m = metrics::compute_metrics(exp);
  const double metrics_s = wall_seconds(t1);
  const double wall = run_s + metrics_s;
  const auto& delays = m.prop_delay_samples;

  Digest d;
  for (const auto& g : exp.trace().generated()) {
    d.bytes(g.block->id().bytes.data(), g.block->id().bytes.size());
    d.u64(g.miner);
    d.f64(g.at);
  }
  for (double v : delays) d.f64(v);
  d.f64(m.consensus_delay_s);
  d.f64(m.fairness);
  d.f64(m.mining_power_utilization);
  d.f64(m.time_to_prune_p90_s);
  d.f64(m.time_to_win_p90_s);
  d.f64(m.tx_per_sec);
  d.u64(m.total_pow_blocks);
  d.u64(m.main_chain_pow_blocks);

  // Event-loop throughput: events per second of the run phase alone.
  const double events_per_sec = static_cast<double>(exp.queue().events_executed()) / run_s;
  char extra[512];
  std::snprintf(extra, sizeof extra,
                "\"run_s\": %.4f, \"metrics_s\": %.4f"
                ", \"events_executed\": %" PRIu64 ", \"messages_sent\": %" PRIu64
                ", \"bytes_sent\": %" PRIu64 ", \"consensus_delay_s\": %.6f"
                ", \"prop_delay_samples\": %zu, \"digest\": \"%016" PRIx64 "\"",
                run_s, metrics_s, exp.queue().events_executed(),
                exp.network().messages_sent(), exp.network().bytes_sent(),
                m.consensus_delay_s, delays.size(), d.h);
  return {"fig7_e2e", wall, events_per_sec, "events/s", extra};
}

}  // namespace

int main(int argc, char** argv) try {
  const std::uint32_t n_nodes = env_u32("REPRO_NODES", 200);
  const std::uint32_t n_blocks = env_u32("REPRO_BLOCKS", 20);
  const std::uint32_t n_ops = env_u32("CORE_BENCH_EVENTS", 1'000'000);
  const char* out_env = std::getenv("CORE_BENCH_OUT");
  const std::string out_path =
      argc > 1 ? argv[1] : (out_env != nullptr ? out_env : "bench_core_out.json");

  std::vector<Result> results;
  std::fprintf(stderr, "[bench_sim_core] event queue steady (%u ops)...\n", n_ops);
  results.push_back(bench_event_queue_steady(4096, n_ops));
  std::fprintf(stderr, "[bench_sim_core] event queue cancel...\n");
  results.push_back(bench_event_queue_cancel(4096, n_ops / 2));
  std::fprintf(stderr, "[bench_sim_core] event queue bulk...\n");
  results.push_back(bench_event_queue_bulk(200'000));
  std::fprintf(stderr, "[bench_sim_core] network send...\n");
  results.push_back(bench_network_send(n_ops / 2));
  std::fprintf(stderr, "[bench_sim_core] network flood (%u nodes)...\n", n_nodes);
  results.push_back(bench_network_flood(n_nodes, 20));
  std::fprintf(stderr, "[bench_sim_core] fig7 end-to-end (%u nodes, %u blocks)...\n",
               n_nodes, n_blocks);
  results.push_back(bench_fig7_e2e(n_nodes, n_blocks));

  std::string json = "{\n  \"config\": {";
  {
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"nodes\": %u, \"blocks\": %u, \"ops\": %u", n_nodes,
                  n_blocks, n_ops);
    json += buf;
  }
  json += "},\n  \"benchmarks\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    \"%s\": {\"wall_s\": %.4f, \"rate\": %.1f, \"unit\": \"%s\"",
                  r.name.c_str(), r.wall_s, r.items_per_sec, r.unit);
    json += buf;
    if (!r.extra.empty()) json += ", " + r.extra;
    json += i + 1 < results.size() ? "},\n" : "}\n";
  }
  json += "  }\n}\n";

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench_sim_core] wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "[bench_sim_core] cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "[bench_sim_core] error: %s\n", e.what());
  return 1;
}
