// Tests for ChainSet: the bookkeeping that keeps dynamic-CSD claims
// consistent with object placement across stack shifts and swaps.
#include <gtest/gtest.h>

#include <vector>

#include "ap/object_space.hpp"
#include "ap/pipeline.hpp"
#include "common/require.hpp"
#include "csd/dynamic_csd.hpp"

namespace vlsip::ap {
namespace {

struct ChainFixture : ::testing::Test {
  ChainFixture()
      : net(csd::CsdConfig{16, 8}), space(8), chains(net, space) {}

  csd::DynamicCsdNetwork net;
  ObjectSpace space;
  ChainSet chains;
};

TEST_F(ChainFixture, RefreshRoutesResidentChains) {
  space.insert_top(1);
  space.insert_top(2);
  chains.add(1, 2, 0);
  EXPECT_EQ(chains.refresh(), 0u);
  EXPECT_EQ(chains.routed(), 1u);
  EXPECT_EQ(net.active_routes(), 1u);
}

TEST_F(ChainFixture, DormantChainsHoldNoRoute) {
  space.insert_top(1);
  chains.add(1, 9, 0);  // 9 is not resident
  chains.refresh();
  EXPECT_EQ(chains.routed(), 0u);
  EXPECT_EQ(net.active_routes(), 0u);
  EXPECT_EQ(chains.unrouted_resident(), 0u);  // dormant, not failed
}

TEST_F(ChainFixture, ShiftInvalidatesAndReroutes) {
  space.insert_top(1);
  space.insert_top(2);
  chains.add(1, 2, 0);
  chains.refresh();
  const auto before = net.routes()[chains.chains()[0].route];
  // A new object enters the top: both endpoints move down one.
  space.insert_top(3);
  chains.refresh();
  ASSERT_EQ(chains.routed(), 1u);
  const auto after = net.routes()[chains.chains()[0].route];
  EXPECT_EQ(after.lo(), before.lo() + 1);
  EXPECT_EQ(after.hi(), before.hi() + 1);
}

TEST_F(ChainFixture, UnmovedChainsKeepRoutes) {
  space.insert_top(5);
  space.insert_top(6);
  chains.add(6, 5, 0);  // positions 0 -> 1
  chains.refresh();
  const auto id_before = chains.chains()[0].route;
  chains.refresh();  // nothing moved
  EXPECT_EQ(chains.chains()[0].route, id_before);
}

TEST_F(ChainFixture, EvictionMakesChainDormantThenRevives) {
  space.insert_top(1);
  space.insert_top(2);
  chains.add(1, 2, 0);
  chains.refresh();
  EXPECT_EQ(chains.routed(), 1u);
  space.remove(1);  // swapped out
  chains.refresh();
  EXPECT_EQ(chains.routed(), 0u);
  space.insert_top(1);  // faults back in
  chains.refresh();
  EXPECT_EQ(chains.routed(), 1u);
}

TEST_F(ChainFixture, RemoveForDropsChainsAndRoutes) {
  space.insert_top(1);
  space.insert_top(2);
  space.insert_top(3);
  chains.add(1, 2, 0);
  chains.add(2, 3, 0);
  chains.refresh();
  chains.remove_for(2);
  EXPECT_EQ(chains.size(), 0u);  // both touched object 2
  EXPECT_EQ(net.active_routes(), 0u);
}

TEST_F(ChainFixture, ClearReleasesEverything) {
  space.insert_top(1);
  space.insert_top(2);
  space.insert_top(3);
  chains.add(1, 2, 0);
  chains.add(3, 2, 1);
  chains.refresh();
  chains.clear();
  EXPECT_EQ(chains.size(), 0u);
  EXPECT_EQ(net.active_routes(), 0u);
  EXPECT_EQ(net.claimed_segments(), 0u);
}

TEST_F(ChainFixture, SelfChainRejected) {
  EXPECT_THROW(chains.add(4, 4, 0), vlsip::PreconditionError);
}

TEST_F(ChainFixture, RoutabilityFailureCounted) {
  // One channel; two overlapping chains cannot both route.
  csd::DynamicCsdNetwork tiny(csd::CsdConfig{8, 1});
  ObjectSpace s(4);
  ChainSet cs(tiny, s);
  s.insert_top(0);
  s.insert_top(1);
  s.insert_top(2);
  s.insert_top(3);
  cs.add(0, 3, 0);  // positions 3 -> 0 (span covers everything)
  cs.add(1, 2, 0);  // overlaps on the single channel
  const auto failures = cs.refresh();
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(cs.routed(), 1u);
  EXPECT_EQ(cs.unrouted_resident(), 1u);
}

TEST_F(ChainFixture, RepeatedRefreshKeepsRoutesAndFailureCount) {
  // One channel, two overlapping chains: one routes, one fails. A
  // second refresh with nothing moved re-runs the pass, keeps the routed
  // chain's route and reports the same failure.
  csd::DynamicCsdNetwork tiny(csd::CsdConfig{8, 1});
  ObjectSpace s(4);
  ChainSet cs(tiny, s);
  for (arch::ObjectId id = 0; id < 4; ++id) s.insert_top(id);
  cs.add(0, 3, 0);
  cs.add(1, 2, 0);
  const auto n0 = cs.rebuilds();
  const auto f0 = cs.refresh();
  EXPECT_EQ(f0, 1u);
  std::vector<csd::RouteId> routes;
  for (const auto& c : cs.chains()) routes.push_back(c.route);
  EXPECT_EQ(cs.refresh(), f0);
  EXPECT_EQ(cs.rebuilds(), n0 + 2);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_EQ(cs.chains()[i].route, routes[i]) << "chain " << i;
  }
  EXPECT_EQ(tiny.active_routes(), 1u);
}

TEST_F(ChainFixture, RouteDroppedByKilledSegmentIsRequestedAgain) {
  // One channel: killing the segment under the only route drops it
  // (no channel left to reroute onto). The chain must not keep the
  // dead route: refresh re-requests it, and neither a later shift nor
  // clear() releases a route the network no longer holds.
  csd::DynamicCsdNetwork tiny(csd::CsdConfig{8, 1});
  ObjectSpace s(6);
  ChainSet cs(tiny, s);
  s.insert_top(1);
  s.insert_top(2);
  cs.add(1, 2, 0);  // positions 1 -> 0
  ASSERT_EQ(cs.refresh(), 0u);
  const auto kill = tiny.kill_segment(0, 0);
  ASSERT_EQ(kill.dropped, 1u);
  EXPECT_EQ(cs.refresh(), 1u);  // the dead segment blocks the only span
  EXPECT_EQ(cs.routed(), 0u);
  s.insert_top(3);  // positions 2 -> 1: a healthy span
  EXPECT_EQ(cs.refresh(), 0u);
  EXPECT_EQ(cs.routed(), 1u);
  EXPECT_EQ(tiny.active_routes(), 1u);
  cs.clear();
  EXPECT_EQ(tiny.active_routes(), 0u);
}

TEST_F(ChainFixture, ClearAfterKilledSegmentDropDoesNotThrow) {
  csd::DynamicCsdNetwork tiny(csd::CsdConfig{8, 1});
  ObjectSpace s(6);
  ChainSet cs(tiny, s);
  s.insert_top(1);
  s.insert_top(2);
  cs.add(1, 2, 0);
  cs.refresh();
  ASSERT_EQ(tiny.kill_segment(0, 0).dropped, 1u);
  EXPECT_NO_THROW(cs.clear());
  EXPECT_EQ(cs.size(), 0u);
}

}  // namespace
}  // namespace vlsip::ap
