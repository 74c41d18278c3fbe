// Block tree and fork choice.
//
// Every node maintains its own view of the block tree. Fork choice follows
// the paper: "the winning chain is the heaviest one ... with random
// tie-breaking" (§3), where in Bitcoin-NG "microblocks do not affect the
// weight of the chain" (§4.2). A heaviest-subtree (GHOST) mode supports the
// §9 comparison.
//
// Identity is interned: the tree holds no Hash256 map of its own. A shared
// per-experiment BlockInterner assigns each block hash a dense u32 BlockId
// once at first sight, and the tree maps BlockId -> entry index through a
// flat vector — so membership tests and index lookups on the receive path
// are single array reads, and all trees of one deployment agree on ids.
// Ancestry queries (`is_ancestor`, `common_ancestor`,
// `ancestor_at_or_before`) run in O(log height) over skip-ancestor "jump"
// pointers computed at insert (the skew-binary level-ancestor scheme: the
// jump length is a pure function of depth, so two nodes at equal depth jump
// to equal depths — which is what makes the common-ancestor descent sound).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chain/block.hpp"
#include "chain/params.hpp"
#include "common/intern.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace bng::chain {

class BlockTree {
 public:
  enum class ForkChoice {
    kHeaviestChain,    ///< Bitcoin / Bitcoin-NG rule.
    kHeaviestSubtree,  ///< GHOST rule.
  };

  /// Per-block state every tree keeps; insert fills it in O(1). The chain
  /// totals add the block's own counts (Block::payload_tx_count /
  /// payload_fee_sum, computed once per block, not per node) to the
  /// parent's. The GHOST-only state — children lists and subtree work —
  /// lives outside Entry, in arrays that only kHeaviestSubtree trees fill.
  struct Entry {
    BlockPtr block;
    BlockId id = kNoBlockId;        ///< interned block identity
    std::int32_t parent = -1;       ///< index of parent; -1 for genesis
    std::uint32_t jump = 0;         ///< skip-ancestor index (genesis: self)
    std::uint32_t height = 0;       ///< distance from genesis (all blocks)
    std::uint32_t pow_height = 0;   ///< number of PoW blocks up to here
    /// Index of the nearest key-block ancestor (or self); genesis index when
    /// no key block exists yet. Defines the current NG epoch.
    std::uint32_t epoch_key_block = 0;
    double chain_work = 0;          ///< accumulated PoW work along the chain
    Seconds received = 0;           ///< local arrival/creation time
    // Cumulative chain statistics (genesis excluded):
    std::uint64_t chain_tx_count = 0;  ///< payload txs (excl. coinbase/poison)
    Amount chain_fee_sum = 0;          ///< payload tx fees along the chain
  };

  /// A record of every best-tip change, consumed by the metrics suite.
  struct TipChange {
    Seconds at;
    std::uint32_t tip;
  };

  /// No entry at this index / id.
  static constexpr std::uint32_t kNoIndex = UINT32_MAX;

  /// `interner` is the experiment-wide id assigner shared by every tree of a
  /// deployment (see net::Network::interner()); a standalone tree (unit
  /// tests, benches) may pass nullptr and owns a private one.
  BlockTree(BlockPtr genesis, TieBreak tie_break, ForkChoice fork_choice, Rng* rng,
            std::shared_ptr<BlockInterner> interner = nullptr);

  /// Gamma knob for kRandom tie-breaking (see Params::tie_switch_prob). The
  /// 0.5 default keeps the original unbiased draw path bit-for-bit.
  void set_tie_switch_prob(double p) { tie_switch_prob_ = p; }

  /// Insert a block whose parent is already in the tree. `work` is the PoW
  /// weight contributed (0 for microblocks). Returns the new entry's index.
  /// Throws if the parent is unknown or the block is a duplicate.
  /// The two-argument overload takes the pre-interned id and performs no
  /// hash-map lookup at all; the convenience overload interns internally
  /// (one lookup — the previous code paid three: contains + find + emplace).
  std::uint32_t insert(const BlockPtr& block, BlockId id, Seconds received_at, double work);
  std::uint32_t insert(const BlockPtr& block, Seconds received_at, double work) {
    return insert(block, interner_->intern(block->id()), received_at, work);
  }

  /// Intern a hash through the tree's shared interner (assigns at first
  /// sight; cheap pass-through for already-seen hashes).
  BlockId intern(const Hash256& h) { return interner_->intern(h); }
  [[nodiscard]] const BlockInterner& interner() const { return *interner_; }
  [[nodiscard]] const std::shared_ptr<BlockInterner>& interner_ptr() const {
    return interner_;
  }

  // --- Id-indexed fast path (no hashing) ------------------------------------
  [[nodiscard]] bool contains_id(BlockId id) const { return index_of_id(id) != kNoIndex; }
  [[nodiscard]] std::uint32_t index_of_id(BlockId id) const {
    return id < index_by_id_.size() ? index_by_id_[id] : kNoIndex;
  }

  // --- Hash-keyed convenience (single interner lookup) ----------------------
  [[nodiscard]] bool contains(const Hash256& id) const {
    return index_of_id(interner_->lookup(id)) != kNoIndex;
  }
  [[nodiscard]] std::optional<std::uint32_t> find(const Hash256& id) const;

  [[nodiscard]] const Entry& entry(std::uint32_t idx) const { return entries_[idx]; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] std::uint32_t best_tip() const { return best_tip_; }
  [[nodiscard]] const Entry& best_entry() const { return entries_[best_tip_]; }
  static constexpr std::uint32_t kGenesisIndex = 0;

  /// Is `anc` an ancestor of (or equal to) `desc`? O(log height).
  [[nodiscard]] bool is_ancestor(std::uint32_t anc, std::uint32_t desc) const;

  /// Ancestor of `idx` at exactly `height` (requires height <= idx's height).
  /// O(log height) via jump pointers.
  [[nodiscard]] std::uint32_t ancestor_at_height(std::uint32_t idx,
                                                 std::uint32_t height) const;

  /// Indices from genesis to `tip`, inclusive.
  [[nodiscard]] std::vector<std::uint32_t> path_from_genesis(std::uint32_t tip) const;

  [[nodiscard]] std::uint32_t common_ancestor(std::uint32_t a, std::uint32_t b) const;

  /// Last block on the path to `tip` whose block timestamp is <= `time` —
  /// the deepest one when timestamps tie (used by the consensus-delay
  /// metric, which relies on that). Accelerated by jump pointers;
  /// chain timestamps are non-decreasing root-to-tip (a child is built after
  /// its parent exists), which makes the skip sound.
  [[nodiscard]] std::uint32_t ancestor_at_or_before(std::uint32_t tip, Seconds time) const;

  /// Own plus descendants' PoW work of entry `idx`. GHOST trees only: a
  /// heaviest-chain tree keeps no subtree state.
  [[nodiscard]] double subtree_work(std::uint32_t idx) const {
    return ghost_.at(idx).subtree_work;
  }

  /// History of best-tip switches, in order (first entry is genesis at 0).
  [[nodiscard]] const std::vector<TipChange>& tip_history() const { return tip_history_; }

 private:
  void maybe_switch_tip(std::uint32_t candidate, Seconds at);
  void add_ghost_node(std::uint32_t idx, std::uint32_t parent, double work);
  void recompute_ghost_tip(Seconds at);
  void set_tip(std::uint32_t tip, Seconds at);
  [[nodiscard]] bool tie_break_switch();

  TieBreak tie_break_;
  double tie_switch_prob_ = 0.5;
  ForkChoice fork_choice_;
  Rng* rng_;  ///< used for random tie-breaking only; may be null for kFirstSeen
  std::shared_ptr<BlockInterner> interner_;
  std::vector<Entry> entries_;
  /// GHOST-only, parallel to entries_ (empty for kHeaviestChain). Children
  /// form an intrusive list in insertion order, which fixes the order in
  /// which recompute_ghost_tip draws tie-break coins.
  struct GhostNode {
    double subtree_work = 0;                 ///< own + descendants' work
    std::uint32_t first_child = kNoIndex;
    std::uint32_t last_child = kNoIndex;
    std::uint32_t next_sibling = kNoIndex;
  };
  std::vector<GhostNode> ghost_;
  std::vector<std::uint32_t> index_by_id_;  ///< BlockId -> entry index / kNoIndex
  std::uint32_t best_tip_ = 0;
  std::vector<TipChange> tip_history_;
};

}  // namespace bng::chain
