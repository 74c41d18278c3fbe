// Block facts computed once per block, checked against the per-node scans
// they replaced.
//
// chain::Block counts its payload, coinbase and poison transactions (and
// sums the payload fees) in its constructor; BlockTree::insert,
// check_microblock, check_key_block and NgNode read those counts instead of
// rescanning txs() at every node. GHOST trees keep subtree work and child
// lists in GHOST-only arrays, and the equivocation detector keeps a pointer
// to the first block per (epoch, prev) instead of a header copy. Each
// reference below is the replaced code, unchanged but for its name; the two
// must agree with == on randomized inputs.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/block_tree.hpp"
#include "chain/validation.hpp"
#include "ng/poison.hpp"

namespace bng::chain {
namespace {

// --- References: the per-tx scans the block facts replaced ------------------

struct ChainTotals {
  std::uint64_t tx_count = 0;
  Amount fee_sum = 0;
};

/// BlockTree::insert's old per-tx loop, applied along the whole path.
ChainTotals chain_totals_reference(const BlockTree& tree, std::uint32_t tip) {
  ChainTotals t;
  for (const std::uint32_t idx : tree.path_from_genesis(tip)) {
    if (idx == BlockTree::kGenesisIndex) continue;  // genesis excluded
    for (const auto& tx : tree.entry(idx).block->txs()) {
      if (tx->is_coinbase() || tx->is_poison()) continue;
      ++t.tx_count;
      t.fee_sum += tx->fee;
    }
  }
  return t;
}

ValidationResult check_microblock_reference(const Block& block,
                                            const crypto::PublicKey& epoch_key,
                                            Seconds prev_timestamp, Seconds now,
                                            const Params& params, bool verify_signature) {
  if (block.type() != BlockType::kMicro) return ValidationResult::fail("not a microblock");
  const BlockHeader& h = block.header();
  if (!h.signature) return ValidationResult::fail("microblock missing signature");
  if (h.leader_key) return ValidationResult::fail("microblock must not carry a key");
  constexpr Seconds kClockTolerance = 1e-9;
  if (h.timestamp > now + kClockTolerance)
    return ValidationResult::fail("microblock timestamp in the future");
  if (h.timestamp - prev_timestamp < params.min_microblock_interval - kClockTolerance)
    return ValidationResult::fail("microblock too soon after predecessor");
  for (const auto& tx : block.txs())
    if (tx->is_coinbase()) return ValidationResult::fail("coinbase in microblock");
  if (verify_signature && !crypto::verify(epoch_key, h.signing_hash(), *h.signature))
    return ValidationResult::fail("bad microblock signature");
  return {};
}

ValidationResult check_key_block_reference(const Block& block) {
  if (block.type() != BlockType::kKey) return ValidationResult::fail("not a key block");
  if (!block.header().leader_key) return ValidationResult::fail("key block missing leader key");
  if (block.header().signature)
    return ValidationResult::fail("key block must not be signed");
  if (block.txs().empty() || !block.txs()[0]->is_coinbase())
    return ValidationResult::fail("key block missing coinbase");
  for (std::size_t i = 1; i < block.txs().size(); ++i)
    if (block.txs()[i]->is_coinbase())
      return ValidationResult::fail("duplicate coinbase in key block");
  return {};
}

/// The detector as it was: a full header copy per (epoch, prev), re-hashed on
/// every key collision.
class HeaderCopyDetector {
 public:
  std::optional<ng::FraudEvidence> observe(const Hash256& epoch_key_block,
                                           const BlockHeader& header) {
    const auto key = std::make_pair(epoch_key_block, header.prev);
    auto [it, inserted] = first_seen_.emplace(key, header);
    if (inserted) return std::nullopt;
    const Hash256 first_id = it->second.id();
    if (first_id == header.id()) return std::nullopt;  // same block re-observed
    if (reported_epochs_.count(epoch_key_block) > 0) return std::nullopt;
    reported_epochs_.insert(epoch_key_block);
    ng::FraudEvidence evidence;
    evidence.accused_key_block = epoch_key_block;
    evidence.header_a = it->second;
    evidence.header_b = header;
    return evidence;
  }

 private:
  struct PairHasher {
    std::size_t operator()(const std::pair<Hash256, Hash256>& p) const noexcept {
      return Hash256Hasher{}(p.first) * 1000003 ^ Hash256Hasher{}(p.second);
    }
  };
  std::unordered_map<std::pair<Hash256, Hash256>, BlockHeader, PairHasher> first_seen_;
  std::unordered_set<Hash256, Hash256Hasher> reported_epochs_;
};

// --- Random inputs ------------------------------------------------------------

const crypto::PublicKey& test_key() {
  static const crypto::PublicKey key = crypto::PrivateKey::from_seed(7).public_key();
  return key;
}

/// A random mix of coinbase, poison and payload transactions with random
/// fees (poison and coinbase fees too, which the totals must ignore).
std::vector<TxPtr> random_txs(Rng& rng, std::uint64_t& serial) {
  std::vector<TxPtr> txs;
  const std::uint64_t n = rng.next_below(12);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto tx = std::make_shared<Transaction>();
    tx->fee = static_cast<Amount>(rng.next_below(5000));
    tx->outputs.push_back(TxOutput{1, address_from_tag(serial++)});
    switch (rng.next_below(6)) {
      case 0:
        tx->coinbase_height = static_cast<std::uint32_t>(serial);
        break;
      case 1: {
        PoisonPayload p;
        p.accused_key_block.bytes[0] = static_cast<std::uint8_t>(serial);
        tx->poison = std::move(p);
        break;
      }
      case 2:  // coinbase and poison at once: excluded once, counted in both
        tx->coinbase_height = static_cast<std::uint32_t>(serial);
        tx->poison = PoisonPayload{};
        break;
      default:
        break;  // payload
    }
    txs.push_back(std::move(tx));
  }
  return txs;
}

BlockPtr random_block(Rng& rng, BlockType type, const Hash256& prev, Seconds ts,
                      std::uint64_t& serial) {
  BlockHeader h;
  h.type = type;
  h.prev = prev;
  h.timestamp = ts;
  h.nonce = serial++;
  // Mostly well-formed headers, with every structural rule broken sometimes.
  const bool odd = rng.next_below(5) == 0;
  if ((type == BlockType::kKey) != odd) h.leader_key = test_key();
  if ((type == BlockType::kMicro) != (rng.next_below(5) == 0))
    h.signature = crypto::Signature{};
  std::vector<TxPtr> txs = random_txs(rng, serial);
  if (type != BlockType::kMicro && rng.next_below(4) != 0) {
    auto cb = std::make_shared<Transaction>();
    cb->coinbase_height = static_cast<std::uint32_t>(serial++);
    cb->fee = static_cast<Amount>(rng.next_below(100));
    txs.insert(txs.begin(), std::move(cb));
  }
  h.merkle_root = compute_merkle_root(txs);
  return std::make_shared<Block>(std::move(h), std::move(txs), 0,
                                 static_cast<double>(1 + rng.next_below(3)));
}

// --- Tests --------------------------------------------------------------------

TEST(BlockFactsOracle, BlockCountsMatchARecount) {
  Rng rng(11);
  std::uint64_t serial = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto type = static_cast<BlockType>(rng.next_below(3));
    const BlockPtr b = random_block(rng, type, Hash256{}, 0, serial);
    std::uint32_t payload = 0, coinbase = 0, poison = 0;
    Amount fees = 0;
    for (const auto& tx : b->txs()) {
      if (tx->is_coinbase()) ++coinbase;
      if (tx->is_poison()) ++poison;
      if (tx->is_coinbase() || tx->is_poison()) continue;
      ++payload;
      fees += tx->fee;
    }
    ASSERT_EQ(b->payload_tx_count(), payload) << i;
    ASSERT_EQ(b->payload_fee_sum(), fees) << i;
    ASSERT_EQ(b->coinbase_count(), coinbase) << i;
    ASSERT_EQ(b->poison_count(), poison) << i;
  }
}

TEST(BlockFactsOracle, ValidationVerdictsMatchTheScanningRules) {
  Rng rng(12);
  std::uint64_t serial = 0;
  Params params = Params::bitcoin_ng();
  params.min_microblock_interval = 0.5;
  std::size_t ok_micro = 0, ok_key = 0, cb_micro = 0, dup_key = 0;
  for (int i = 0; i < 8000; ++i) {
    const auto type = static_cast<BlockType>(rng.next_below(3));
    const Seconds ts = static_cast<double>(rng.next_below(8)) * 0.25;
    const BlockPtr b = random_block(rng, type, Hash256{}, ts, serial);
    const Seconds prev_ts = static_cast<double>(rng.next_below(4)) * 0.25;
    const Seconds now = static_cast<double>(rng.next_below(8)) * 0.25;
    const auto micro = check_microblock(*b, test_key(), prev_ts, now, params, false);
    const auto micro_ref =
        check_microblock_reference(*b, test_key(), prev_ts, now, params, false);
    ASSERT_EQ(micro.ok, micro_ref.ok) << i;
    ASSERT_EQ(micro.error, micro_ref.error) << i;
    const auto key = check_key_block(*b);
    const auto key_ref = check_key_block_reference(*b);
    ASSERT_EQ(key.ok, key_ref.ok) << i;
    ASSERT_EQ(key.error, key_ref.error) << i;
    ok_micro += micro.ok;
    ok_key += key.ok;
    cb_micro += micro_ref.error == "coinbase in microblock";
    dup_key += key_ref.error == "duplicate coinbase in key block";
  }
  // The inputs reach the verdicts the counts decide, not only early exits.
  EXPECT_GT(ok_micro, 20u);
  EXPECT_GT(ok_key, 20u);
  EXPECT_GT(cb_micro, 20u);
  EXPECT_GT(dup_key, 20u);
}

/// The GHOST descent as it was, over child lists and subtree sums rebuilt
/// from parent pointers; it draws from its own Rng, seeded like the tree's.
std::uint32_t ghost_tip_reference(const BlockTree& tree, const std::vector<double>& work,
                                  Rng& rng) {
  std::vector<std::vector<std::uint32_t>> children(tree.size());
  std::vector<double> subtree(tree.size(), 0.0);
  for (std::uint32_t i = 1; i < tree.size(); ++i)
    children[static_cast<std::uint32_t>(tree.entry(i).parent)].push_back(i);
  for (std::uint32_t i = static_cast<std::uint32_t>(tree.size()); i-- > 0;) {
    subtree[i] += work[i];
    if (tree.entry(i).parent >= 0)
      subtree[static_cast<std::uint32_t>(tree.entry(i).parent)] += subtree[i];
  }
  std::uint32_t cur = BlockTree::kGenesisIndex;
  for (;;) {
    std::uint32_t best_child = UINT32_MAX;
    double best_work = -1;
    for (std::uint32_t c : children[cur]) {
      const double w = subtree[c];
      if (w > best_work ||
          (w == best_work && best_child != UINT32_MAX && rng.next_below(2) == 1)) {
        best_work = w;
        best_child = c;
      }
    }
    if (best_child == UINT32_MAX || best_work <= 0) break;
    cur = best_child;
  }
  return cur;
}

void check_random_fork_tree(BlockTree::ForkChoice fork_choice, std::uint64_t seed) {
  Rng rng(seed);
  Rng tree_rng(seed + 1000);
  Rng ref_rng(seed + 1000);
  std::uint64_t serial = 0;
  BlockTree tree(make_genesis(1, kCoin), TieBreak::kRandom, fork_choice, &tree_rng);
  const bool ghost = fork_choice == BlockTree::ForkChoice::kHeaviestSubtree;
  std::vector<double> work{0.0};  // genesis adds none
  for (int i = 0; i < 300; ++i) {
    // Bias towards recent blocks so chains grow deep as well as bushy.
    const auto n = static_cast<std::uint32_t>(tree.size());
    const std::uint32_t parent =
        rng.next_below(3) == 0 ? static_cast<std::uint32_t>(rng.next_below(n))
                               : n - 1 - static_cast<std::uint32_t>(rng.next_below(
                                             std::min<std::uint32_t>(n, 4)));
    const auto type = rng.next_below(3) == 0 ? BlockType::kMicro : BlockType::kPow;
    const BlockPtr b = random_block(rng, type, tree.entry(parent).block->id(),
                                    static_cast<double>(i), serial);
    // Integer works keep every subtree sum exact in either summation order.
    const double w = b->work();
    const std::uint32_t idx = tree.insert(b, static_cast<double>(i), w);
    work.push_back(w);

    const ChainTotals ref = chain_totals_reference(tree, idx);
    ASSERT_EQ(tree.entry(idx).chain_tx_count, ref.tx_count) << i;
    ASSERT_EQ(tree.entry(idx).chain_fee_sum, ref.fee_sum) << i;
    if (ghost) {
      ASSERT_EQ(tree.best_tip(), ghost_tip_reference(tree, work, ref_rng)) << i;
    }
  }
  for (std::uint32_t idx = 0; idx < tree.size(); ++idx) {
    const ChainTotals ref = chain_totals_reference(tree, idx);
    EXPECT_EQ(tree.entry(idx).chain_tx_count, ref.tx_count) << idx;
    EXPECT_EQ(tree.entry(idx).chain_fee_sum, ref.fee_sum) << idx;
    if (!ghost) continue;
    double descendants = 0;  // brute force: every entry idx is an ancestor of
    for (std::uint32_t d = 0; d < tree.size(); ++d)
      for (std::int32_t a = static_cast<std::int32_t>(d); a != -1;
           a = tree.entry(static_cast<std::uint32_t>(a)).parent)
        if (static_cast<std::uint32_t>(a) == idx) descendants += work[d];
    EXPECT_EQ(tree.subtree_work(idx), descendants) << idx;
  }
}

TEST(BlockFactsOracle, HeaviestChainTotalsMatchPathSums) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    check_random_fork_tree(BlockTree::ForkChoice::kHeaviestChain, seed);
}

TEST(BlockFactsOracle, GhostTotalsSubtreeWorkAndTipMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    check_random_fork_tree(BlockTree::ForkChoice::kHeaviestSubtree, seed);
}

TEST(BlockFactsOracle, EquivocationReportsMatchTheHeaderCopyDetector) {
  std::size_t reports = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::uint64_t serial = 0;
    ng::EquivocationDetector detector;
    HeaderCopyDetector reference;
    std::vector<Hash256> epochs(1 + rng.next_below(4));
    std::vector<Hash256> prevs(1 + rng.next_below(5));
    for (auto& e : epochs) e.bytes[0] = static_cast<std::uint8_t>(serial++);
    for (auto& p : prevs) p.bytes[1] = static_cast<std::uint8_t>(serial++);
    std::vector<BlockPtr> seen;
    for (int i = 0; i < 200; ++i) {
      const Hash256& epoch = epochs[rng.next_below(epochs.size())];
      BlockPtr block;
      if (!seen.empty() && rng.next_below(3) == 0) {
        // Re-observation, possibly under another epoch than the first time.
        block = seen[rng.next_below(seen.size())];
      } else {
        BlockHeader h;
        h.type = BlockType::kMicro;
        h.prev = prevs[rng.next_below(prevs.size())];
        h.timestamp = static_cast<double>(rng.next_below(3));  // siblings may tie
        h.nonce = serial++;
        h.signature = crypto::Signature{};
        block = std::make_shared<Block>(std::move(h), std::vector<TxPtr>{}, 0);
        seen.push_back(block);
      }
      const auto got = detector.observe(epoch, block);
      const auto want = reference.observe(epoch, block->header());
      ASSERT_EQ(got.has_value(), want.has_value()) << seed << ' ' << i;
      if (!want) continue;
      ++reports;
      EXPECT_EQ(got->accused_key_block, want->accused_key_block);
      EXPECT_EQ(got->header_a.id(), want->header_a.id());
      EXPECT_EQ(got->header_b.id(), want->header_b.id());
    }
  }
  EXPECT_GT(reports, 20u);  // the streams do produce frauds to compare
}

}  // namespace
}  // namespace bng::chain
