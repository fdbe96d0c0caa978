#include "csd/dynamic_csd.hpp"

#include <algorithm>
#include <sstream>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::csd {

namespace {

bool test_bit(const std::vector<std::uint64_t>& words, std::size_t idx) {
  return (words[idx >> 6] >> (idx & 63)) & 1u;
}

void set_bit(std::vector<std::uint64_t>& words, std::size_t idx) {
  words[idx >> 6] |= 1ull << (idx & 63);
}

/// Calls fn(word, mask) for every bitword overlapping bits [b, e), with
/// `mask` selecting the range's bits within that word.
template <typename Fn>
void for_each_word(std::size_t b, std::size_t e, Fn&& fn) {
  while (b < e) {
    const std::size_t word = b >> 6;
    const std::size_t stop = std::min(e, (word + 1) << 6);
    const std::size_t n = stop - b;
    const std::uint64_t bits = n == 64 ? ~0ull : (1ull << n) - 1;
    fn(word, bits << (b & 63));
    b = stop;
  }
}

}  // namespace

DynamicCsdNetwork::DynamicCsdNetwork(CsdConfig config, obs::TraceSink* trace)
    : config_(config), trace_(trace) {
  VLSIP_REQUIRE(config_.positions >= 2, "need at least two positions");
  VLSIP_REQUIRE(config_.channels >= 1, "need at least one channel");
  blocked_.assign((segment_count() + 63) / 64, 0ull);
  dead_.assign(blocked_.size(), 0ull);
  claimed_per_channel_.assign(config_.channels, 0);
}

std::size_t DynamicCsdNetwork::segment_index(ChannelId c, Position seg) const {
  return static_cast<std::size_t>(c) * (config_.positions - 1) + seg;
}

bool DynamicCsdNetwork::span_free(ChannelId channel, Position lo,
                                  Position hi) const {
  // A channel's segments are contiguous in the global index space, so a
  // span is one contiguous bit range: a masked head word, whole middle
  // words (tested several per compare via simd::range_all_zero — the
  // case that matters at 1024-position arrays, where one span covers
  // dozens of words), and a masked tail word.
  const std::size_t b = segment_index(channel, lo);
  const std::size_t e = segment_index(channel, hi);
  if (b >= e) return true;
  const std::size_t bw = b >> 6;
  const std::size_t lw = (e - 1) >> 6;  // last word holding a span bit
  const std::uint64_t head = ~0ull << (b & 63);
  const std::uint64_t tail =
      (e & 63) ? ((1ull << (e & 63)) - 1) : ~0ull;
  if (bw == lw) return (blocked_[bw] & head & tail) == 0;
  if (blocked_[bw] & head) return false;
  if (!simd::range_all_zero(blocked_.data() + bw + 1, lw - bw - 1)) {
    return false;
  }
  return (blocked_[lw] & tail) == 0;
}

void DynamicCsdNetwork::claim(ChannelId c, Position lo, Position hi) {
  for_each_word(segment_index(c, lo), segment_index(c, hi),
                [this](std::size_t w, std::uint64_t m) { blocked_[w] |= m; });
  claimed_per_channel_[c] += hi - lo;
  claimed_total_ += hi - lo;
}

void DynamicCsdNetwork::unclaim(ChannelId c, Position lo, Position hi) {
  for_each_word(segment_index(c, lo), segment_index(c, hi),
                [this](std::size_t w, std::uint64_t m) {
                  blocked_[w] = (blocked_[w] & ~m) | (dead_[w] & m);
                });
  claimed_per_channel_[c] -= hi - lo;
  claimed_total_ -= hi - lo;
}

std::optional<ChannelId> DynamicCsdNetwork::try_route(Position source,
                                                      Position sink) {
  VLSIP_REQUIRE(source < config_.positions && sink < config_.positions,
                "route endpoint out of range");
  VLSIP_REQUIRE(source != sink, "source and sink must differ");
  const Position lo = std::min(source, sink);
  const Position hi = std::max(source, sink);
  ++requests_;
  // Priority encoder at the sink: lowest-index channel whose span is
  // entirely chained (free) wins.
  for (ChannelId c = 0; c < config_.channels; ++c) {
    if (span_free(c, lo, hi)) {
      ++grants_;
      return c;
    }
  }
  ++rejects_;
  return std::nullopt;
}

std::optional<RouteId> DynamicCsdNetwork::establish(Position source,
                                                    Position sink) {
  const auto channel = try_route(source, sink);
  if (!channel) {
    if (trace_) {
      trace_->event(now_, obs::Layer::kCsd, "csd", -1,
                    "route " + std::to_string(source) + "->" +
                        std::to_string(sink) + " REJECTED (no free channel)");
    }
    return std::nullopt;
  }

  const RouteId id = add_route(source, sink, *channel);
  now_ += handshake_latency(source, sink);
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd",
                  static_cast<std::int64_t>(id),
                  "route " + std::to_string(source) + "->" +
                      std::to_string(sink) + " granted channel " +
                      std::to_string(*channel),
                  handshake_latency(source, sink));
  }
  return id;
}

RouteId DynamicCsdNetwork::add_route(Position source, Position sink,
                                     ChannelId channel) {
  RouteId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<RouteId>(routes_.size());
    routes_.push_back(Route{});
  }
  Route& r = routes_[id];
  r.id = id;
  r.source = source;
  r.sink = sink;
  r.channel = channel;
  claim(channel, r.lo(), r.hi());
  ++active_routes_;
  return id;
}

void DynamicCsdNetwork::release(RouteId id) {
  VLSIP_REQUIRE(id < routes_.size() && routes_[id].id != kNoRoute,
                "release of unknown route");
  Route& r = routes_[id];
  unclaim(r.channel, r.lo(), r.hi());
  r.id = kNoRoute;
  free_slots_.push_back(id);
  --active_routes_;
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd",
                  static_cast<std::int64_t>(id),
                  "route " + std::to_string(id) + " released");
  }
}

void DynamicCsdNetwork::release_at(Position p) {
  for (RouteId id = 0; id < routes_.size(); ++id) {
    const Route& r = routes_[id];
    if (r.id != kNoRoute && (r.source == p || r.sink == p)) {
      release(id);
    }
  }
}

std::optional<FanoutRoutes> DynamicCsdNetwork::establish_fanout(
    Position source, const std::vector<Position>& sinks) {
  VLSIP_REQUIRE(!sinks.empty(), "fan-out needs at least one sink");
  VLSIP_REQUIRE(source < config_.positions, "fan-out source out of range");
  Position lo = source;
  Position hi = source;
  for (Position s : sinks) {
    VLSIP_REQUIRE(s < config_.positions, "fan-out sink out of range");
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  VLSIP_REQUIRE(hi > lo, "fan-out must span at least one segment");
  ++requests_;
  for (ChannelId c = 0; c < config_.channels; ++c) {
    if (!span_free(c, lo, hi)) continue;
    ++grants_;
    // One route per side, each to that side's farthest sink: together
    // they claim exactly [lo, hi), every sink in between included.
    FanoutRoutes out;
    out.first = add_route(source, hi == source ? lo : hi, c);
    if (lo < source && hi > source) out.second = add_route(source, lo, c);
    if (trace_) {
      trace_->event(now_, obs::Layer::kCsd, "csd",
                    static_cast<std::int64_t>(out.first),
                    "fanout from " + std::to_string(source) + " over [" +
                        std::to_string(lo) + "," + std::to_string(hi) +
                        "] on channel " + std::to_string(c));
    }
    return out;
  }
  ++rejects_;
  return std::nullopt;
}

void DynamicCsdNetwork::shift_down_one() {
  // Shift claims by +1 position. Work on a cleared claim map (only the
  // dead segments blocked) so a claim moving into a segment vacated by
  // another claim is handled order-independently.
  blocked_ = dead_;
  std::fill(claimed_per_channel_.begin(), claimed_per_channel_.end(), 0u);
  claimed_total_ = 0;
  for (RouteId id = 0; id < routes_.size(); ++id) {
    Route& r = routes_[id];
    if (r.id == kNoRoute) continue;
    if (r.hi() + 1 >= config_.positions) {
      // The route's deepest endpoint passed the bottom of the stack
      // (top = position 0): the evicted object's chains are torn down.
      r.id = kNoRoute;
      free_slots_.push_back(id);
      --active_routes_;
      if (trace_) {
        trace_->event(now_, obs::Layer::kCsd, "csd",
                      static_cast<std::int64_t>(id),
                      "route " + std::to_string(id) +
                          " dropped by stack shift (evicted)");
      }
      continue;
    }
    ++r.source;
    ++r.sink;
    // The shifted span may now cover a dead segment (dead segments are
    // wire positions: they do not move with the stack). Fall back to
    // the priority encoder — any channel with a healthy free span — and
    // drop the route if none exists.
    if (!span_free(r.channel, r.lo(), r.hi())) {
      ChannelId fallback = config_.channels;
      for (ChannelId c = 0; c < config_.channels; ++c) {
        if (span_free(c, r.lo(), r.hi())) {
          fallback = c;
          break;
        }
      }
      if (fallback == config_.channels) {
        r.id = kNoRoute;
        free_slots_.push_back(id);
        --active_routes_;
        if (trace_) {
          trace_->event(now_, obs::Layer::kCsd, "csd",
                        static_cast<std::int64_t>(id),
                        "route " + std::to_string(id) +
                            " dropped by stack shift (dead segment)");
        }
        continue;
      }
      r.channel = fallback;
    }
    claim(r.channel, r.lo(), r.hi());
  }
  ++now_;
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd", -1, "stack shift down");
  }
}

SegmentKillResult DynamicCsdNetwork::kill_segment(ChannelId channel,
                                                  Position segment) {
  VLSIP_REQUIRE(channel < config_.channels, "channel out of range");
  VLSIP_REQUIRE(segment < config_.positions - 1, "segment out of range");
  SegmentKillResult result;
  const std::size_t idx = segment_index(channel, segment);
  if (test_bit(dead_, idx)) return result;  // already killed

  const RouteId victim =
      test_bit(blocked_, idx) ? route_over(channel, segment) : kNoRoute;
  if (victim != kNoRoute) {
    // Tear the route off the dead wire, then re-handshake: the fig. 2
    // procedure naturally finds a surviving channel.
    const Route torn = routes_[victim];
    release(victim);
    set_bit(dead_, idx);
    set_bit(blocked_, idx);
    result.affected = 1;
    if (establish(torn.source, torn.sink).has_value()) {
      ++result.rerouted;
    } else {
      ++result.dropped;
    }
  } else {
    set_bit(dead_, idx);
    set_bit(blocked_, idx);
  }
  ++segments_killed_;
  kill_reroutes_ += result.rerouted;
  kill_drops_ += result.dropped;
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd",
                  static_cast<std::int64_t>(channel),
                  "segment " + std::to_string(segment) + " of channel " +
                      std::to_string(channel) + " killed (" +
                      std::to_string(result.rerouted) + " rerouted, " +
                      std::to_string(result.dropped) + " dropped)");
  }
  return result;
}

RouteId DynamicCsdNetwork::route_over(ChannelId channel,
                                      Position segment) const {
  for (const Route& r : routes_) {
    if (r.id != kNoRoute && r.channel == channel && r.lo() <= segment &&
        segment < r.hi()) {
      return r.id;
    }
  }
  return kNoRoute;
}

bool DynamicCsdNetwork::segment_dead(ChannelId channel,
                                     Position segment) const {
  VLSIP_REQUIRE(channel < config_.channels, "channel out of range");
  VLSIP_REQUIRE(segment < config_.positions - 1, "segment out of range");
  return test_bit(dead_, segment_index(channel, segment));
}

std::size_t DynamicCsdNetwork::dead_segments() const {
  return simd::popcount_words(dead_.data(), dead_.size());
}

ChannelId DynamicCsdNetwork::used_channels() const {
  return static_cast<ChannelId>(simd::count_nonzero_u32(
      claimed_per_channel_.data(), config_.channels));
}

std::size_t DynamicCsdNetwork::claimed_segments() const {
  return claimed_total_;
}

double DynamicCsdNetwork::utilisation() const {
  return static_cast<double>(claimed_segments()) /
         static_cast<double>(segment_count());
}

std::size_t DynamicCsdNetwork::active_routes() const { return active_routes_; }

std::uint64_t DynamicCsdNetwork::handshake_latency(Position source,
                                                   Position sink) {
  const Position span =
      source < sink ? sink - source : source - sink;
  // request propagation + priority encode + grant/unchain + ack return
  return static_cast<std::uint64_t>(span) + 1 + 1 +
         static_cast<std::uint64_t>(span);
}

void DynamicCsdNetwork::export_obs(obs::MetricRegistry& registry,
                                   const std::string& prefix) const {
  registry.counter(prefix + "requests") += requests_;
  registry.counter(prefix + "grants") += grants_;
  registry.counter(prefix + "rejects") += rejects_;
  registry.counter(prefix + "segments_killed") += segments_killed_;
  registry.counter(prefix + "kill_reroutes") += kill_reroutes_;
  registry.counter(prefix + "kill_drops") += kill_drops_;
  // Occupancy is point-in-time, not monotonic: gauges.
  registry.gauge(prefix + "active_routes") =
      static_cast<double>(active_routes());
  registry.gauge(prefix + "used_channels") =
      static_cast<double>(used_channels());
  registry.gauge(prefix + "claimed_segments") =
      static_cast<double>(claimed_segments());
  registry.gauge(prefix + "dead_segments") =
      static_cast<double>(dead_segments());
  registry.gauge(prefix + "utilisation") = utilisation();
}

std::string DynamicCsdNetwork::render() const {
  std::ostringstream out;
  const Position segs = config_.positions - 1;
  for (ChannelId c = 0; c < config_.channels; ++c) {
    out << "ch" << c << ": ";
    for (Position s = 0; s < segs; ++s) {
      const std::size_t idx = segment_index(c, s);
      out << (test_bit(dead_, idx) ? 'X'
                                   : (test_bit(blocked_, idx) ? '#' : '.'));
    }
    out << "\n";
  }
  return out.str();
}

void DynamicCsdNetwork::save(snapshot::Writer& w) const {
  w.section("csd.network");
  w.u32(config_.positions);
  w.u32(config_.channels);
  w.u64(routes_.size());
  for (const auto& r : routes_) {
    w.u32(r.id);
    w.u32(r.source);
    w.u32(r.sink);
    w.u32(r.channel);
  }
  w.vec_u32(free_slots_);
  w.u64(active_routes_);
  std::vector<std::uint8_t> dead(segment_count());
  for (std::size_t i = 0; i < dead.size(); ++i) dead[i] = test_bit(dead_, i);
  w.vec_u8(dead);
  w.u64(now_);
  w.u64(requests_);
  w.u64(grants_);
  w.u64(rejects_);
  w.u64(segments_killed_);
  w.u64(kill_reroutes_);
  w.u64(kill_drops_);
}

void DynamicCsdNetwork::restore(snapshot::Reader& r) {
  r.section("csd.network");
  const Position positions = r.u32();
  const ChannelId channels = r.u32();
  VLSIP_REQUIRE(positions == config_.positions &&
                    channels == config_.channels,
                "snapshot CSD geometry mismatch");
  routes_.clear();
  const std::uint64_t n_routes = r.count(16);
  routes_.reserve(static_cast<std::size_t>(n_routes));
  for (std::uint64_t i = 0; i < n_routes; ++i) {
    Route route;
    route.id = r.u32();
    route.source = r.u32();
    route.sink = r.u32();
    route.channel = r.u32();
    routes_.push_back(route);
  }
  free_slots_ = r.vec_u32();
  active_routes_ = static_cast<std::size_t>(r.u64());
  const std::vector<std::uint8_t> dead = r.vec_u8();
  VLSIP_REQUIRE(dead.size() == segment_count(),
                "snapshot CSD segment map mismatch");
  // Rebuild all derived claim state: clear, re-mark dead segments, then
  // re-claim every live route's span exactly as establish() did. A span
  // that is not free when claimed overlaps another route or a dead
  // segment: no sequence of establishes leads there.
  std::fill(dead_.begin(), dead_.end(), 0ull);
  for (std::size_t i = 0; i < dead.size(); ++i) {
    if (dead[i] != 0) set_bit(dead_, i);
  }
  blocked_ = dead_;
  std::fill(claimed_per_channel_.begin(), claimed_per_channel_.end(), 0u);
  claimed_total_ = 0;
  std::size_t live = 0;
  for (RouteId id = 0; id < routes_.size(); ++id) {
    const Route& route = routes_[id];
    if (route.id == kNoRoute) continue;
    if (route.id != id || route.channel >= channels ||
        route.source >= positions || route.sink >= positions ||
        route.source == route.sink) {
      throw snapshot::SnapshotError("snapshot CSD route is malformed");
    }
    if (!span_free(route.channel, route.lo(), route.hi())) {
      throw snapshot::SnapshotError(
          "snapshot CSD route overlaps a claimed or dead segment");
    }
    claim(route.channel, route.lo(), route.hi());
    ++live;
  }
  std::vector<bool> freed(routes_.size(), false);
  for (const RouteId slot : free_slots_) {
    if (slot >= routes_.size() || routes_[slot].id != kNoRoute ||
        freed[slot]) {
      throw snapshot::SnapshotError("snapshot CSD free list is malformed");
    }
    freed[slot] = true;
  }
  if (live != active_routes_) {
    throw snapshot::SnapshotError("snapshot CSD route count mismatch");
  }
  now_ = r.u64();
  requests_ = r.u64();
  grants_ = r.u64();
  rejects_ = r.u64();
  segments_killed_ = r.u64();
  kill_reroutes_ = r.u64();
  kill_drops_ = r.u64();
}

}  // namespace vlsip::csd
