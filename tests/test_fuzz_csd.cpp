// Randomized stress of the dynamic CSD network against a shadow model:
// establish/release/shift sequences must keep the claim matrix exactly
// consistent with the set of active routes. A second sweep checks the
// word-level claim bitsets against a per-segment map rebuilt from
// routes() after every operation, fan-outs, segment kills and
// checkpoint round trips included.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "csd/dynamic_csd.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::csd {
namespace {

struct ShadowRoute {
  Position lo;
  Position hi;
  ChannelId channel;
};

class CsdFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsdFuzz, ClaimsAlwaysMatchActiveRoutes) {
  const auto seed = GetParam();
  Xoshiro256 rng(seed);
  const Position positions = static_cast<Position>(8 + rng.uniform(56));
  const ChannelId channels = static_cast<ChannelId>(2 + rng.uniform(14));
  DynamicCsdNetwork net(CsdConfig{positions, channels});

  std::map<RouteId, ShadowRoute> shadow;

  auto check_consistency = [&] {
    // 1. Active route count matches.
    ASSERT_EQ(net.active_routes(), shadow.size());
    // 2. Total claimed segments = sum of shadow spans.
    std::size_t expect_segments = 0;
    for (const auto& [id, r] : shadow) {
      expect_segments += r.hi - r.lo;
    }
    ASSERT_EQ(net.claimed_segments(), expect_segments);
    // 3. No two shadow routes on one channel overlap.
    for (auto a = shadow.begin(); a != shadow.end(); ++a) {
      for (auto b = std::next(a); b != shadow.end(); ++b) {
        if (a->second.channel != b->second.channel) continue;
        const bool disjoint = a->second.hi <= b->second.lo ||
                              b->second.hi <= a->second.lo;
        ASSERT_TRUE(disjoint) << "overlap on channel "
                              << a->second.channel;
      }
    }
    // 4. span_free agrees with the shadow for random probes.
    for (int probe = 0; probe < 8; ++probe) {
      const auto c = static_cast<ChannelId>(rng.uniform(channels));
      auto lo = static_cast<Position>(rng.uniform(positions - 1));
      auto hi = static_cast<Position>(
          lo + 1 + rng.uniform(positions - 1 - lo));
      bool expect_free = true;
      for (const auto& [id, r] : shadow) {
        if (r.channel == c && !(r.hi <= lo || hi <= r.lo)) {
          expect_free = false;
          break;
        }
      }
      ASSERT_EQ(net.span_free(c, lo, hi), expect_free)
          << "probe ch" << c << " [" << lo << "," << hi << ")";
    }
  };

  for (int step = 0; step < 300; ++step) {
    const auto action = rng.uniform(10);
    if (action < 6) {
      // establish
      auto a = static_cast<Position>(rng.uniform(positions));
      auto b = static_cast<Position>(rng.uniform(positions));
      if (a == b) b = (b + 1) % positions;
      const auto route = net.establish(a, b);
      if (route) {
        const auto& r = net.routes()[*route];
        shadow[*route] = ShadowRoute{r.lo(), r.hi(), r.channel};
      }
    } else if (action < 9) {
      // release a random active route
      if (!shadow.empty()) {
        auto it = shadow.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.uniform(shadow.size())));
        net.release(it->first);
        shadow.erase(it);
      }
    } else {
      // stack shift
      net.shift_down_one();
      for (auto it = shadow.begin(); it != shadow.end();) {
        if (it->second.hi + 1 >= positions) {
          it = shadow.erase(it);  // dropped off the bottom
        } else {
          ++it->second.lo;
          ++it->second.hi;
          ++it;
        }
      }
    }
    check_consistency();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsdFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

std::vector<std::uint8_t> saved_bytes(const DynamicCsdNetwork& net) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  net.save(w);
  return snap.bytes();
}

class CsdBitsetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsdBitsetFuzz, BitsetsMatchPerSegmentReference) {
  const auto seed = GetParam();
  Xoshiro256 rng(seed);
  const Position positions = static_cast<Position>(8 + rng.uniform(90));
  const ChannelId channels = static_cast<ChannelId>(1 + rng.uniform(6));
  const Position segs = positions - 1;
  std::optional<DynamicCsdNetwork> net;
  net.emplace(CsdConfig{positions, channels});
  std::set<std::size_t> dead;  // segment indices killed so far

  // owner[c * segs + s]: the live route on hop s of channel c, painted
  // from routes(); fails if two routes or a route and a dead segment
  // share a hop.
  std::vector<RouteId> owner;
  const auto rebuild = [&] {
    owner.assign(static_cast<std::size_t>(channels) * segs, kNoRoute);
    for (const Route& r : net->routes()) {
      if (r.id == kNoRoute) continue;
      for (Position s = r.lo(); s < r.hi(); ++s) {
        const std::size_t idx = std::size_t{r.channel} * segs + s;
        ASSERT_EQ(owner[idx], kNoRoute) << "routes overlap at " << idx;
        ASSERT_EQ(dead.count(idx), 0u) << "route over dead segment " << idx;
        owner[idx] = r.id;
      }
    }
  };
  const auto check = [&] {
    rebuild();
    std::size_t live = 0;
    for (const Route& r : net->routes()) live += r.id != kNoRoute;
    ASSERT_EQ(net->active_routes(), live);
    std::size_t claimed = 0;
    ChannelId used = 0;
    std::string render;
    for (ChannelId c = 0; c < channels; ++c) {
      bool any = false;
      render += "ch" + std::to_string(c) + ": ";
      for (Position s = 0; s < segs; ++s) {
        const std::size_t idx = std::size_t{c} * segs + s;
        const bool is_dead = dead.count(idx) != 0;
        ASSERT_EQ(net->segment_dead(c, s), is_dead);
        if (owner[idx] != kNoRoute) {
          ++claimed;
          any = true;
        }
        render += is_dead ? 'X' : (owner[idx] == kNoRoute ? '.' : '#');
      }
      render += "\n";
      used += any;
    }
    ASSERT_EQ(net->claimed_segments(), claimed);
    ASSERT_EQ(net->used_channels(), used);
    ASSERT_EQ(net->dead_segments(), dead.size());
    ASSERT_EQ(net->render(), render);
    for (int probe = 0; probe < 24; ++probe) {
      const auto c = static_cast<ChannelId>(rng.uniform(channels));
      const auto lo = static_cast<Position>(rng.uniform(segs));
      const auto hi = static_cast<Position>(lo + 1 + rng.uniform(segs - lo));
      bool expect_free = true;
      for (Position s = lo; s < hi; ++s) {
        const std::size_t idx = std::size_t{c} * segs + s;
        if (owner[idx] != kNoRoute || dead.count(idx) != 0) {
          expect_free = false;
        }
      }
      ASSERT_EQ(net->span_free(c, lo, hi), expect_free)
          << "probe ch" << c << " [" << lo << "," << hi << ")";
    }
  };

  for (int step = 0; step < 300; ++step) {
    const auto action = rng.uniform(20);
    if (action < 8) {
      auto a = static_cast<Position>(rng.uniform(positions));
      auto b = static_cast<Position>(rng.uniform(positions));
      if (a == b) b = (b + 1) % positions;
      net->establish(a, b);
    } else if (action < 10) {
      const auto source = static_cast<Position>(rng.uniform(positions));
      std::vector<Position> sinks(1 + rng.uniform(3));
      for (auto& sink : sinks) {
        sink = static_cast<Position>(rng.uniform(positions));
      }
      sinks.push_back(source == 0 ? 1 : source - 1);  // spans >= 1 hop
      net->establish_fanout(source, sinks);
    } else if (action < 15) {
      std::vector<RouteId> live;
      for (const Route& r : net->routes()) {
        if (r.id != kNoRoute) live.push_back(r.id);
      }
      if (!live.empty()) net->release(live[rng.uniform(live.size())]);
    } else if (action < 17) {
      const auto c = static_cast<ChannelId>(rng.uniform(channels));
      const auto s = static_cast<Position>(rng.uniform(segs));
      const std::size_t idx = std::size_t{c} * segs + s;
      rebuild();
      const bool was_dead = dead.count(idx) != 0;
      const bool had_route = owner[idx] != kNoRoute;
      const auto kill = net->kill_segment(c, s);
      EXPECT_EQ(kill.affected, was_dead ? 0u : (had_route ? 1u : 0u));
      EXPECT_EQ(kill.rerouted + kill.dropped, kill.affected);
      dead.insert(idx);
    } else if (action < 19) {
      net->shift_down_one();
    } else {
      const auto before = saved_bytes(*net);
      snapshot::Snapshot snap;
      snap.bytes() = before;
      net.emplace(CsdConfig{positions, channels});
      snapshot::Reader r(snap);
      net->restore(r);
      ASSERT_EQ(saved_bytes(*net), before);
    }
    check();
    if (HasFatalFailure()) {
      FAIL() << "seed " << seed << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsdBitsetFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace vlsip::csd
