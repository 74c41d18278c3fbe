// NodeStateArena / ArenaIdSet: the flat [plane][node][id] arena must behave
// exactly like one independent FlatIdSet per (plane, node).
#include <gtest/gtest.h>

#include "common/node_state.hpp"

namespace bng {
namespace {

TEST(NodeState, ViewsAreIsolatedPerNodeAndPlane) {
  NodeStateArena arena(4);
  ArenaIdSet a(arena, NodeStateArena::kKnown, 1);
  ArenaIdSet b(arena, NodeStateArena::kKnown, 2);
  ArenaIdSet a_req(arena, NodeStateArena::kRequested, 1);
  a.insert(7);
  EXPECT_TRUE(a.contains(7));
  EXPECT_FALSE(b.contains(7));
  EXPECT_FALSE(a_req.contains(7));  // planes are independent rows
  b.insert(7);
  a.erase(7);
  EXPECT_FALSE(a.contains(7));
  EXPECT_TRUE(b.contains(7));
  a.erase(99);  // erasing a never-inserted id past capacity is a no-op
  EXPECT_FALSE(a.contains(99));
}

TEST(NodeState, GrowthPastCapacityKeepsMembership) {
  NodeStateArena arena(3);
  EXPECT_EQ(arena.capacity(), 0u);
  ArenaIdSet first(arena, NodeStateArena::kKnown, 0);
  ArenaIdSet last(arena, NodeStateArena::kRequested, 2);
  first.insert(5);
  last.insert(63);
  const std::uint32_t cap = arena.capacity();
  EXPECT_GE(cap, 64u);
  first.insert(10'000);  // forces a relayout of every row
  EXPECT_GE(arena.capacity(), 10'001u);
  EXPECT_TRUE(first.contains(5));
  EXPECT_TRUE(first.contains(10'000));
  EXPECT_TRUE(last.contains(63));
  EXPECT_FALSE(last.contains(5));
  EXPECT_FALSE(last.contains(10'000));
  ArenaIdSet middle(arena, NodeStateArena::kKnown, 1);
  EXPECT_FALSE(middle.contains(5));
}

TEST(NodeState, ClearBumpsOneRowsEpochAndIdsCanBeReused) {
  NodeStateArena arena(2);
  ArenaIdSet a(arena, NodeStateArena::kKnown, 0);
  ArenaIdSet b(arena, NodeStateArena::kKnown, 1);
  for (BlockId id = 0; id < 20; ++id) {
    a.insert(id);
    b.insert(id);
  }
  a.clear();
  for (BlockId id = 0; id < 20; ++id) {
    EXPECT_FALSE(a.contains(id));
    EXPECT_TRUE(b.contains(id));  // the epoch is per row, not global
  }
  a.insert(3);
  EXPECT_TRUE(a.contains(3));
  EXPECT_FALSE(a.contains(4));
  a.clear();
  a.clear();  // repeated clears stay empty
  EXPECT_FALSE(a.contains(3));
  a.insert(3);
  EXPECT_TRUE(a.contains(3));
}

TEST(NodeState, CpuCursorIsPerNode) {
  NodeStateArena arena(3);
  arena.cpu_busy(1) = 2.5;
  EXPECT_EQ(arena.cpu_busy(0), 0.0);
  EXPECT_EQ(arena.cpu_busy(1), 2.5);
  EXPECT_EQ(arena.cpu_busy(2), 0.0);
}

}  // namespace
}  // namespace bng
