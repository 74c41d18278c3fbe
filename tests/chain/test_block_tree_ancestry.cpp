// Ancestry queries on deep, randomly forked trees, checked against a
// brute-force parent-walk reference.
//
// The jump-pointer (skew-binary skip ancestor) rewrite made is_ancestor /
// common_ancestor / ancestor_at_or_before O(log height); these tests pin
// their answers to the O(height) walks they replaced, over tree shapes the
// unit tests in test_block_tree.cpp are too small to exercise: long chains,
// bushy forks, and mixtures of both, with strictly increasing or tied
// timestamps.
#include "chain/block_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace bng::chain {
namespace {

BlockPtr make_block(const Hash256& prev, Seconds ts, std::uint64_t salt) {
  BlockHeader h;
  h.type = BlockType::kPow;
  h.prev = prev;
  h.timestamp = ts;
  h.nonce = salt;
  return std::make_shared<Block>(h, std::vector<TxPtr>{}, 0);
}

// --- Brute-force references (the pre-jump-pointer implementations) ----------

bool ref_is_ancestor(const BlockTree& t, std::uint32_t anc, std::uint32_t desc) {
  std::uint32_t cur = desc;
  const std::uint32_t target_height = t.entry(anc).height;
  while (t.entry(cur).height > target_height)
    cur = static_cast<std::uint32_t>(t.entry(cur).parent);
  return cur == anc;
}

std::uint32_t ref_common_ancestor(const BlockTree& t, std::uint32_t a, std::uint32_t b) {
  while (t.entry(a).height > t.entry(b).height)
    a = static_cast<std::uint32_t>(t.entry(a).parent);
  while (t.entry(b).height > t.entry(a).height)
    b = static_cast<std::uint32_t>(t.entry(b).parent);
  while (a != b) {
    a = static_cast<std::uint32_t>(t.entry(a).parent);
    b = static_cast<std::uint32_t>(t.entry(b).parent);
  }
  return a;
}

std::uint32_t ref_ancestor_at_or_before(const BlockTree& t, std::uint32_t tip,
                                        Seconds time) {
  std::uint32_t cur = tip;
  while (t.entry(cur).parent != -1 && t.entry(cur).block->header().timestamp > time)
    cur = static_cast<std::uint32_t>(t.entry(cur).parent);
  return cur;
}

/// Grow a tree of `n` blocks. Each block forks off a random existing block,
/// biased towards recent ones (`recent_bias` high => long chains with thin
/// forks; 0 => uniformly bushy). Timestamps increase monotonically, as in a
/// simulation (a block is built after its parent exists). With `ties`, a
/// block's timestamp is its parent's plus 0 or 1: non-decreasing along every
/// chain, with runs of equal timestamps (blocks built in the same instant).
BlockTree grow_random_tree(std::uint32_t n, std::uint64_t seed, std::uint32_t recent_bias,
                           bool ties = false) {
  auto genesis = make_genesis(1, kCoin);
  Rng rng(seed);
  BlockTree tree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                 nullptr);
  for (std::uint32_t i = 1; i <= n; ++i) {
    const std::uint32_t span = static_cast<std::uint32_t>(tree.size());
    std::uint32_t parent;
    if (recent_bias > 0 && span > recent_bias && rng.next_below(4) != 0) {
      parent = span - 1 - static_cast<std::uint32_t>(rng.next_below(recent_bias));
    } else {
      parent = static_cast<std::uint32_t>(rng.next_below(span));
    }
    const Seconds ts =
        ties ? tree.entry(parent).block->header().timestamp +
                   static_cast<Seconds>(rng.next_below(2))
             : static_cast<Seconds>(i);
    auto block = make_block(tree.entry(parent).block->id(), ts, i);
    tree.insert(block, static_cast<Seconds>(i), 1.0);
  }
  return tree;
}

struct Shape {
  std::uint32_t n;
  std::uint64_t seed;
  std::uint32_t recent_bias;
  bool ties = false;  ///< non-decreasing timestamps with repeats
};

class AncestryShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(AncestryShapes, MatchesBruteForceOnRandomPairs) {
  const Shape shape = GetParam();
  const BlockTree tree = grow_random_tree(shape.n, shape.seed, shape.recent_bias, shape.ties);
  Rng rng(shape.seed ^ 0x5eedu);
  const auto size = static_cast<std::uint32_t>(tree.size());
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(size));
    const auto b = static_cast<std::uint32_t>(rng.next_below(size));
    ASSERT_EQ(tree.is_ancestor(a, b), ref_is_ancestor(tree, a, b))
        << "a=" << a << " b=" << b;
    ASSERT_EQ(tree.is_ancestor(b, a), ref_is_ancestor(tree, b, a))
        << "a=" << a << " b=" << b;
    ASSERT_EQ(tree.common_ancestor(a, b), ref_common_ancestor(tree, a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST_P(AncestryShapes, AncestorAtHeightMatchesParentWalk) {
  const Shape shape = GetParam();
  const BlockTree tree = grow_random_tree(shape.n, shape.seed, shape.recent_bias, shape.ties);
  Rng rng(shape.seed ^ 0xa17u);
  const auto size = static_cast<std::uint32_t>(tree.size());
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_below(size));
    const std::uint32_t h =
        static_cast<std::uint32_t>(rng.next_below(tree.entry(v).height + 1));
    std::uint32_t expect = v;
    while (tree.entry(expect).height > h)
      expect = static_cast<std::uint32_t>(tree.entry(expect).parent);
    ASSERT_EQ(tree.ancestor_at_height(v, h), expect) << "v=" << v << " h=" << h;
  }
}

TEST_P(AncestryShapes, AncestorAtOrBeforeMatchesBruteForce) {
  const Shape shape = GetParam();
  const BlockTree tree = grow_random_tree(shape.n, shape.seed, shape.recent_bias, shape.ties);
  Rng rng(shape.seed ^ 0x7173u);
  const auto size = static_cast<std::uint32_t>(tree.size());
  for (int i = 0; i < 500; ++i) {
    const auto tip = static_cast<std::uint32_t>(rng.next_below(size));
    // Probe below, inside, and above the tree's timestamp range, including
    // exact block timestamps (the <= boundary). Under ties the answer must be
    // the deepest block at or before the probe, not the first of its run.
    const Seconds tip_ts = tree.entry(tip).block->header().timestamp;
    const Seconds probes[] = {-1.0, 0.0,
                              static_cast<Seconds>(rng.next_below(shape.n + 2)),
                              tip_ts,
                              std::floor(tip_ts / 2),
                              static_cast<Seconds>(shape.n) + 5.0};
    for (const Seconds t : probes) {
      ASSERT_EQ(tree.ancestor_at_or_before(tip, t), ref_ancestor_at_or_before(tree, tip, t))
          << "tip=" << tip << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AncestryShapes,
    ::testing::Values(Shape{3000, 11, 8},    // deep chains with thin forks
                      Shape{2000, 23, 0},    // uniformly bushy
                      Shape{4000, 37, 64},   // wide recent window
                      Shape{500, 41, 1},     // near-pure chain
                      Shape{3000, 53, 8, true},   // tied timestamps: deep
                      Shape{2000, 59, 0, true},   // tied timestamps: bushy
                      Shape{500, 61, 1, true}),   // tied timestamps: chain
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_seed" +
             std::to_string(info.param.seed) + "_bias" +
             std::to_string(info.param.recent_bias) + (info.param.ties ? "_ties" : "");
    });

TEST(AncestryDeepChain, FiftyThousandBlockChain) {
  // A pure chain 50k deep: the O(height) walks this replaced would make
  // quadratic test loops here; jump pointers keep each query logarithmic.
  auto genesis = make_genesis(1, kCoin);
  BlockTree tree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                 nullptr);
  Hash256 prev = genesis->id();
  constexpr std::uint32_t kDepth = 50'000;
  for (std::uint32_t i = 1; i <= kDepth; ++i) {
    auto block = make_block(prev, static_cast<Seconds>(i), i);
    prev = block->id();
    tree.insert(block, static_cast<Seconds>(i), 1.0);
  }
  const std::uint32_t tip = tree.best_tip();
  EXPECT_EQ(tree.entry(tip).height, kDepth);
  Rng rng(9);
  for (int i = 0; i < 20'000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(tree.size()));
    const auto b = static_cast<std::uint32_t>(rng.next_below(tree.size()));
    // On a pure chain every pair is ancestor-ordered by height.
    ASSERT_EQ(tree.common_ancestor(a, b), std::min(a, b));
    ASSERT_EQ(tree.is_ancestor(a, b), a <= b);
    ASSERT_EQ(tree.ancestor_at_height(tip, a), a);
  }
  EXPECT_TRUE(tree.is_ancestor(0, tip));
  EXPECT_EQ(tree.ancestor_at_or_before(tip, 0.5), 0u);
  EXPECT_EQ(tree.ancestor_at_or_before(tip, static_cast<Seconds>(kDepth) + 1), tip);
}

}  // namespace
}  // namespace bng::chain
