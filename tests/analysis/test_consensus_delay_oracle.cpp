// The (ε,δ) consensus-delay metric checked against its simple predecessor.
//
// metrics::consensus_delay sweeps every node's tip changes once and looks
// up each distinct tip's cut through jump pointers in the global tree.
// consensus_delay_reference below is the implementation it replaced,
// unchanged but for taking the core's raw inputs: per sample it rebuilds
// every node's full chain and counts one vote per node. The two must agree
// bit for bit, on randomized fork trees and on small real runs.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "runner/record.hpp"
#include "runner/scenario.hpp"

namespace bng::metrics {
namespace {

using chain::BlockTree;
using Generated = sim::TraceRecorder::Generated;

double consensus_delay_reference(const BlockTree& g,
                                 std::span<const BlockTree* const> nodes,
                                 std::span<const Generated> generated, double epsilon,
                                 double delta) {
  const std::size_t n_nodes = nodes.size();
  const auto quorum = static_cast<std::size_t>(epsilon * static_cast<double>(n_nodes));

  // Generation times (ascending) with global indices: candidate prefix cuts.
  struct Gen {
    Seconds at;
    std::uint32_t gidx;
  };
  std::vector<Gen> gens;
  gens.reserve(generated.size());
  for (const auto& rec : generated) {
    if (const std::uint32_t gi = g.index_of_id(rec.id); gi != BlockTree::kNoIndex)
      gens.push_back({rec.at, gi});
  }
  std::sort(gens.begin(), gens.end(), [](const Gen& a, const Gen& b) { return a.at < b.at; });
  if (gens.empty()) return 0.0;

  // Per node: map node-tree entries to global indices once. Node and global
  // trees share one interner, so this is a flat id-indexed pass, no hashing.
  std::vector<std::vector<std::uint32_t>> global_of(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    const BlockTree& t = *nodes[n];
    global_of[n].resize(t.size());
    for (std::uint32_t i = 0; i < t.size(); ++i) {
      const std::uint32_t gi = g.index_of_id(t.entry(i).id);
      global_of[n][i] = gi != BlockTree::kNoIndex ? gi : 0;  // unknowns -> root
    }
  }

  // Sample the point consensus delay on a uniform grid across the run
  // (prefix cuts happen at block generation times, per Fig. 4; the reported
  // delay is measured back to the newest commonly-agreed block's generation).
  // The first 10% of the run is skipped as genesis warm-up.
  constexpr std::size_t kSamples = 240;
  const Seconds t_begin = gens.front().at + 0.1 * (gens.back().at - gens.front().at);
  const Seconds t_end = gens.back().at;
  std::vector<Seconds> sample_times;
  if (t_end <= t_begin) {
    sample_times.push_back(t_end);
  } else {
    for (std::size_t s = 0; s < kSamples; ++s)
      sample_times.push_back(t_begin + (t_end - t_begin) * static_cast<double>(s + 1) /
                                           static_cast<double>(kSamples));
  }

  std::vector<double> point_delays;
  point_delays.reserve(sample_times.size());
  std::vector<std::vector<std::pair<Seconds, std::uint32_t>>> chains(n_nodes);
  std::unordered_map<std::uint32_t, std::size_t> votes;

  for (const Seconds t : sample_times) {
    // Each node's chain at time t: (timestamp, global idx) ascending.
    for (std::size_t n = 0; n < n_nodes; ++n) {
      const BlockTree& tree = *nodes[n];
      const auto& hist = tree.tip_history();
      // Last tip change at or before t.
      auto it = std::upper_bound(
          hist.begin(), hist.end(), t,
          [](Seconds value, const BlockTree::TipChange& c) { return value < c.at; });
      const std::uint32_t tip = (it == hist.begin()) ? 0 : std::prev(it)->tip;
      auto& chain = chains[n];
      chain.clear();
      for (std::int32_t cur = static_cast<std::int32_t>(tip); cur != -1;
           cur = tree.entry(static_cast<std::uint32_t>(cur)).parent) {
        const auto& e = tree.entry(static_cast<std::uint32_t>(cur));
        chain.emplace_back(e.block->header().timestamp,
                           global_of[n][static_cast<std::uint32_t>(cur)]);
      }
      std::reverse(chain.begin(), chain.end());
    }

    // Scan candidate cut times from most recent backwards.
    double delay = t;  // worst case: only the genesis prefix is agreed
    for (auto g_it = std::upper_bound(
             gens.begin(), gens.end(), t,
             [](Seconds value, const Gen& rec) { return value < rec.at; });
         g_it != gens.begin();) {
      --g_it;
      const Seconds tau = g_it->at;
      votes.clear();
      std::size_t best = 0;
      for (std::size_t n = 0; n < n_nodes; ++n) {
        const auto& chain = chains[n];
        // Last chain block with timestamp <= tau.
        auto c_it = std::upper_bound(
            chain.begin(), chain.end(), tau,
            [](Seconds value, const auto& pr) { return value < pr.first; });
        const std::uint32_t cut = (c_it == chain.begin()) ? 0 : std::prev(c_it)->second;
        best = std::max(best, ++votes[cut]);
      }
      if (best >= quorum) {
        delay = t - tau;
        break;
      }
    }
    point_delays.push_back(delay);
  }
  return percentile(std::move(point_delays), delta * 100.0);
}

constexpr double kEpsilons[] = {0.0, 0.5, 0.9, 1.0};
constexpr double kDeltas[] = {0.5, 0.9};

void expect_matches_reference(const BlockTree& g, std::span<const BlockTree* const> nodes,
                              std::span<const Generated> generated) {
  for (const double eps : kEpsilons) {
    for (const double delta : kDeltas) {
      EXPECT_EQ(consensus_delay(g, nodes, generated, eps, delta),
                consensus_delay_reference(g, nodes, generated, eps, delta))
          << "epsilon=" << eps << " delta=" << delta;
    }
  }
}

// --- Randomized fork trees ---------------------------------------------------

struct Shape {
  std::uint32_t blocks;
  std::uint32_t nodes;
  std::uint32_t recent_bias;  ///< as in test_block_tree_ancestry.cpp; 0 = bushy
  std::uint64_t seed;
};

/// A synthetic run: blocks generated on random parents with non-decreasing,
/// often tied timestamps; every node receives a random parent-closed subset
/// of them in a random parent-first order at non-decreasing receive times.
/// Node 0 also mines private blocks the global tree never sees, so its tip
/// moves in and out of the global tree.
class ForkWorld {
 public:
  explicit ForkWorld(const Shape& shape)
      : interner_(std::make_shared<BlockInterner>()),
        genesis_(chain::make_genesis(1, kCoin)),
        global_(genesis_, chain::TieBreak::kFirstSeen,
                BlockTree::ForkChoice::kHeaviestChain, nullptr, interner_) {
    Rng rng(shape.seed);
    std::vector<chain::BlockPtr> blocks{genesis_};
    std::vector<std::uint32_t> parent_of{0};
    for (std::uint32_t i = 1; i <= shape.blocks; ++i) {
      const auto span = static_cast<std::uint32_t>(blocks.size());
      std::uint32_t parent;
      if (shape.recent_bias > 0 && span > shape.recent_bias && rng.next_below(4) != 0)
        parent = span - 1 - static_cast<std::uint32_t>(rng.next_below(shape.recent_bias));
      else
        parent = static_cast<std::uint32_t>(rng.next_below(span));
      const Seconds at = blocks[parent]->header().timestamp +
                         static_cast<Seconds>(rng.next_below(3));  // 1 in 3 ties
      const bool micro = rng.next_below(4) == 0;
      blocks.push_back(make_block(blocks[parent], at, micro, i));
      parent_of.push_back(parent);
      const BlockId id = global_.intern(blocks.back()->id());
      global_.insert(blocks.back(), id, at, blocks.back()->work());
      generated_.push_back(Generated{blocks.back(), id, 0, at});
    }

    for (std::uint32_t n = 0; n < shape.nodes; ++n) {
      rngs_.push_back(std::make_unique<Rng>(shape.seed * 131 + n));
      const auto fork_choice = n % 3 == 2 ? BlockTree::ForkChoice::kHeaviestSubtree
                                          : BlockTree::ForkChoice::kHeaviestChain;
      const auto tie_break = n % 3 == 1 ? chain::TieBreak::kFirstSeen : chain::TieBreak::kRandom;
      trees_.push_back(std::make_unique<BlockTree>(genesis_, tie_break, fork_choice,
                                                   rngs_.back().get(), interner_));
      BlockTree& tree = *trees_.back();

      // A parent-closed subset (about 85% of blocks whose parent made it).
      std::vector<char> keep(blocks.size(), 0);
      keep[0] = 1;
      std::vector<std::vector<std::uint32_t>> children(blocks.size());
      for (std::uint32_t b = 1; b < blocks.size(); ++b) {
        keep[b] = keep[parent_of[b]] && rng.next_below(20) < 17;
        if (keep[b]) children[parent_of[b]].push_back(b);
      }
      // Random parent-first order at non-decreasing receive times.
      std::vector<std::uint32_t> ready = children[0];
      Seconds now = 0;
      while (!ready.empty()) {
        const std::size_t pick = rng.next_below(ready.size());
        const std::uint32_t b = ready[pick];
        ready[pick] = ready.back();
        ready.pop_back();
        ready.insert(ready.end(), children[b].begin(), children[b].end());
        now += static_cast<Seconds>(rng.next_below(3)) * 0.5;
        tree.insert(blocks[b], now, blocks[b]->work());
        if (n == 0 && rng.next_below(5) == 0) {
          // Withheld block on the node's own tip: never generated globally.
          const chain::BlockPtr& tip = tree.best_entry().block;
          auto priv = make_block(tip, tip->header().timestamp +
                                          static_cast<Seconds>(rng.next_below(2)),
                                 false, 1'000'000 + tree.size());
          tree.insert(priv, now, priv->work());
        }
      }
    }
  }

  [[nodiscard]] const BlockTree& global() const { return global_; }
  [[nodiscard]] const std::vector<Generated>& generated() const { return generated_; }
  [[nodiscard]] std::vector<const BlockTree*> nodes() const {
    std::vector<const BlockTree*> out;
    for (const auto& t : trees_) out.push_back(t.get());
    return out;
  }

 private:
  static chain::BlockPtr make_block(const chain::BlockPtr& parent, Seconds ts, bool micro,
                                    std::uint64_t salt) {
    chain::BlockHeader h;
    h.type = micro ? chain::BlockType::kMicro : chain::BlockType::kPow;
    h.prev = parent->id();
    h.timestamp = ts;
    h.nonce = salt;
    return std::make_shared<chain::Block>(h, std::vector<chain::TxPtr>{}, 0,
                                          micro ? 0.0 : 1.0);
  }

  std::shared_ptr<BlockInterner> interner_;
  chain::BlockPtr genesis_;
  BlockTree global_;
  std::vector<Generated> generated_;
  std::vector<std::unique_ptr<Rng>> rngs_;
  std::vector<std::unique_ptr<BlockTree>> trees_;
};

class ConsensusDelayOracle : public ::testing::TestWithParam<Shape> {};

TEST_P(ConsensusDelayOracle, MatchesReferenceOnRandomForkTrees) {
  const ForkWorld world(GetParam());
  const auto nodes = world.nodes();

  // The fallback path is live: node 0's tip left the global tree at least
  // once, and came back.
  std::size_t unknown = 0, known = 0;
  for (const auto& c : nodes[0]->tip_history())
    (world.global().contains_id(nodes[0]->entry(c.tip).id) ? known : unknown) += 1;
  EXPECT_GT(unknown, 0u);
  EXPECT_GT(known, 1u);

  expect_matches_reference(world.global(), nodes, world.generated());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConsensusDelayOracle,
    ::testing::Values(Shape{400, 20, 1, 3},    // long chains, thin forks
                      Shape{400, 20, 1, 4},
                      Shape{200, 30, 0, 5},    // uniformly bushy
                      Shape{200, 30, 0, 6},
                      Shape{300, 25, 8, 7},    // mixed
                      Shape{300, 25, 8, 8},
                      Shape{120, 60, 4, 9}),   // many nodes, short run
    [](const ::testing::TestParamInfo<Shape>& info) {
      const Shape& p = info.param;
      return std::string("b").append(std::to_string(p.blocks))
          .append("_n").append(std::to_string(p.nodes))
          .append("_bias").append(std::to_string(p.recent_bias))
          .append("_seed").append(std::to_string(p.seed));
    });

TEST(ConsensusDelayOracleEdge, NoGeneratedBlocksIsZero) {
  const ForkWorld world(Shape{0, 3, 0, 1});
  const auto nodes = world.nodes();
  EXPECT_EQ(consensus_delay(world.global(), nodes, world.generated(), 0.9, 0.9), 0.0);
  expect_matches_reference(world.global(), nodes, world.generated());
}

// --- Small real runs ---------------------------------------------------------

class ConsensusDelayOracleScenario : public ::testing::TestWithParam<const char*> {};

TEST_P(ConsensusDelayOracleScenario, MatchesReferenceOnRealRuns) {
  const auto s = runner::make_scenario(GetParam(), runner::RunKnobs{24, 8});
  ASSERT_TRUE(s.has_value());
  const auto points = runner::expand(*s);
  ASSERT_FALSE(points.empty());
  // First, middle and last grid points cover each axis' extremes.
  for (const std::size_t p : {std::size_t{0}, points.size() / 2, points.size() - 1}) {
    sim::ExperimentConfig cfg = points[p].config;
    cfg.seed = runner::job_seed(s->seed_base, p, 0);
    sim::Experiment exp(std::move(cfg));
    if (s->run) {
      runner::NamedValues values;
      exp.build();
      s->run(exp, values);
    } else {
      exp.run();
    }
    std::vector<const BlockTree*> nodes;
    for (const auto& node : exp.nodes()) nodes.push_back(&node->tree());
    SCOPED_TRACE(points[p].labels.empty() ? "base" : points[p].labels.back());
    expect_matches_reference(exp.global_tree(), nodes, exp.trace().generated());
    EXPECT_EQ(consensus_delay(exp, 0.9, 0.9),
              consensus_delay_reference(exp.global_tree(), nodes, exp.trace().generated(),
                                        0.9, 0.9));
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ConsensusDelayOracleScenario,
                         ::testing::Values("smoke", "attack_smoke", "ng_poison",
                                           "eclipse_selfish", "partition_heal",
                                           "selfish_threshold"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace bng::metrics
