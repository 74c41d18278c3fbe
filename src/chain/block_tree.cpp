#include "chain/block_tree.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bng::chain {

BlockTree::BlockTree(BlockPtr genesis, TieBreak tie_break, ForkChoice fork_choice, Rng* rng,
                     std::shared_ptr<BlockInterner> interner)
    : tie_break_(tie_break),
      fork_choice_(fork_choice),
      rng_(rng),
      interner_(interner != nullptr ? std::move(interner)
                                    : std::make_shared<BlockInterner>()) {
  if (tie_break_ == TieBreak::kRandom && rng_ == nullptr)
    throw std::invalid_argument("BlockTree: random tie-break needs an Rng");
  Entry e;
  e.block = std::move(genesis);
  e.id = interner_->intern(e.block->id());
  e.parent = -1;
  e.jump = 0;  // genesis jumps to itself
  e.received = 0;
  if (e.id >= index_by_id_.size()) index_by_id_.resize(e.id + 1, kNoIndex);
  index_by_id_[e.id] = 0;
  entries_.push_back(std::move(e));
  if (fork_choice_ == ForkChoice::kHeaviestSubtree) ghost_.emplace_back();
  tip_history_.push_back({0.0, 0});
}

std::optional<std::uint32_t> BlockTree::find(const Hash256& id) const {
  const std::uint32_t idx = index_of_id(interner_->lookup(id));
  if (idx == kNoIndex) return std::nullopt;
  return idx;
}

std::uint32_t BlockTree::insert(const BlockPtr& block, BlockId id, Seconds received_at,
                                double work) {
  if (contains_id(id)) throw std::invalid_argument("BlockTree: duplicate block");
  const std::uint32_t parent = index_of_id(interner_->lookup(block->header().prev));
  if (parent == kNoIndex) throw std::invalid_argument("BlockTree: unknown parent");

  Entry e;
  e.block = block;
  e.id = id;
  e.parent = static_cast<std::int32_t>(parent);
  e.height = entries_[parent].height + 1;
  e.pow_height = entries_[parent].pow_height + (block->is_pow() ? 1 : 0);
  e.chain_work = entries_[parent].chain_work + work;
  e.received = received_at;
  e.chain_tx_count = entries_[parent].chain_tx_count + block->payload_tx_count();
  e.chain_fee_sum = entries_[parent].chain_fee_sum + block->payload_fee_sum();
  e.epoch_key_block = block->type() == BlockType::kKey
                          ? static_cast<std::uint32_t>(entries_.size())
                          : entries_[parent].epoch_key_block;

  // Skew-binary skip pointer: when the parent's two previous jump gaps are
  // equal, fold them into one double-length jump; otherwise start a fresh
  // unit jump. Gap lengths depend only on depth, so all entries at one
  // height jump to one common height.
  {
    const std::uint32_t j = entries_[parent].jump;
    const std::uint32_t jj = entries_[j].jump;
    const std::uint32_t gap1 = entries_[parent].height - entries_[j].height;
    const std::uint32_t gap2 = entries_[j].height - entries_[jj].height;
    e.jump = (gap1 == gap2) ? jj : parent;
  }

  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(std::move(e));
  if (id >= index_by_id_.size()) {
    index_by_id_.resize(std::max<std::size_t>(index_by_id_.size() * 2,
                                              static_cast<std::size_t>(id) + 1),
                        kNoIndex);
  }
  index_by_id_[id] = idx;

  if (fork_choice_ == ForkChoice::kHeaviestChain) {
    maybe_switch_tip(idx, received_at);
  } else {
    add_ghost_node(idx, parent, work);
    recompute_ghost_tip(received_at);
  }
  return idx;
}

void BlockTree::add_ghost_node(std::uint32_t idx, std::uint32_t parent, double work) {
  ghost_.emplace_back().subtree_work = work;
  GhostNode& p = ghost_[parent];
  if (p.last_child == kNoIndex)
    p.first_child = idx;
  else
    ghost_[p.last_child].next_sibling = idx;
  p.last_child = idx;
  if (work > 0) {
    for (std::int32_t a = static_cast<std::int32_t>(parent); a != -1;
         a = entries_[static_cast<std::uint32_t>(a)].parent)
      ghost_[static_cast<std::uint32_t>(a)].subtree_work += work;
  }
}

bool BlockTree::tie_break_switch() {
  if (tie_break_ == TieBreak::kFirstSeen) return false;
  // The unbiased default must keep the exact historical draw sequence
  // (golden digests pin it); only a biased gamma takes the uniform() path.
  if (tie_switch_prob_ == 0.5) return rng_->next_below(2) == 1;
  if (tie_switch_prob_ <= 0.0) return false;
  if (tie_switch_prob_ >= 1.0) return true;
  return rng_->uniform() < tie_switch_prob_;
}

void BlockTree::maybe_switch_tip(std::uint32_t candidate, Seconds at) {
  const Entry& cand = entries_[candidate];
  const Entry& best = entries_[best_tip_];
  // A descendant of the current tip always extends it.
  if (cand.parent >= 0 && static_cast<std::uint32_t>(cand.parent) == best_tip_) {
    set_tip(candidate, at);
    return;
  }
  if (cand.chain_work > best.chain_work) {
    set_tip(candidate, at);
  } else if (cand.chain_work == best.chain_work && !is_ancestor(candidate, best_tip_)) {
    // Equal-weight fork: paper §3 prescribes random tie-breaking — but only
    // weight-bearing candidates draw the coin. A zero-weight block (an NG
    // microblock, §4.2 "microblocks do not affect the weight of the chain")
    // extending a rival equal-work branch gives that branch no new claim to
    // the tip; re-rolling the tie per microblock would let a losing leader
    // (or a selfish miner's revealed epoch) win settled races by attrition.
    if (cand.block->work() > 0 && tie_break_switch()) set_tip(candidate, at);
  }
}

void BlockTree::recompute_ghost_tip(Seconds at) {
  // Descend from genesis following the heaviest subtree; then extend through
  // weightless blocks (microblocks) to the deepest descendant.
  std::uint32_t cur = kGenesisIndex;
  for (;;) {
    std::uint32_t best_child = UINT32_MAX;
    double best_work = -1;
    for (std::uint32_t c = ghost_[cur].first_child; c != kNoIndex;
         c = ghost_[c].next_sibling) {
      double w = ghost_[c].subtree_work;
      if (w > best_work || (w == best_work && best_child != UINT32_MAX && tie_break_switch())) {
        best_work = w;
        best_child = c;
      }
    }
    if (best_child == UINT32_MAX || best_work <= 0) break;
    cur = best_child;
  }
  if (cur != best_tip_) set_tip(cur, at);
}

void BlockTree::set_tip(std::uint32_t tip, Seconds at) {
  best_tip_ = tip;
  tip_history_.push_back({at, tip});
}

std::uint32_t BlockTree::ancestor_at_height(std::uint32_t idx, std::uint32_t height) const {
  std::uint32_t cur = idx;
  while (entries_[cur].height > height) {
    const std::uint32_t j = entries_[cur].jump;
    cur = entries_[j].height >= height ? j
                                       : static_cast<std::uint32_t>(entries_[cur].parent);
  }
  return cur;
}

bool BlockTree::is_ancestor(std::uint32_t anc, std::uint32_t desc) const {
  const std::uint32_t target_height = entries_[anc].height;
  if (entries_[desc].height < target_height) return false;
  return ancestor_at_height(desc, target_height) == anc;
}

std::vector<std::uint32_t> BlockTree::path_from_genesis(std::uint32_t tip) const {
  std::vector<std::uint32_t> path;
  path.reserve(entries_[tip].height + 1);
  for (std::int32_t cur = static_cast<std::int32_t>(tip); cur != -1;
       cur = entries_[static_cast<std::uint32_t>(cur)].parent)
    path.push_back(static_cast<std::uint32_t>(cur));
  std::reverse(path.begin(), path.end());
  return path;
}

std::uint32_t BlockTree::common_ancestor(std::uint32_t a, std::uint32_t b) const {
  // Equalize heights, then descend both by jump while the jumps disagree
  // (the ancestor is at or below the jump height) and by parent otherwise.
  // Jump heights are a pure function of depth, so a and b stay level.
  if (entries_[a].height > entries_[b].height)
    a = ancestor_at_height(a, entries_[b].height);
  else if (entries_[b].height > entries_[a].height)
    b = ancestor_at_height(b, entries_[a].height);
  while (a != b) {
    const std::uint32_t ja = entries_[a].jump;
    const std::uint32_t jb = entries_[b].jump;
    if (ja != jb && entries_[ja].height == entries_[jb].height) {
      a = ja;
      b = jb;
    } else {
      a = static_cast<std::uint32_t>(entries_[a].parent);
      b = static_cast<std::uint32_t>(entries_[b].parent);
    }
  }
  return a;
}

std::uint32_t BlockTree::ancestor_at_or_before(std::uint32_t tip, Seconds time) const {
  // Timestamps are non-decreasing along a chain (a block is built after its
  // parent existed), so if the jump target still violates `time`, everything
  // between it and `cur` does too and the whole stride can be skipped.
  std::uint32_t cur = tip;
  while (entries_[cur].parent != -1 && entries_[cur].block->header().timestamp > time) {
    const std::uint32_t j = entries_[cur].jump;
    cur = (j != cur && entries_[j].block->header().timestamp > time)
              ? j
              : static_cast<std::uint32_t>(entries_[cur].parent);
  }
  return cur;
}

}  // namespace bng::chain
