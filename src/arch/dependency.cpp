#include "arch/dependency.hpp"

#include <algorithm>
#include <unordered_map>

namespace vlsip::arch {

std::vector<std::size_t> stack_distances(const std::vector<ObjectId>& trace) {
  // A plain recency list (top = front), walked from the top. Kept apart
  // from ap::ObjectSpace on purpose: it is the reference the pipeline's
  // stack is checked against.
  std::vector<std::size_t> distances;
  distances.reserve(trace.size());
  std::vector<ObjectId> stack;

  for (ObjectId id : trace) {
    const auto it = std::find(stack.begin(), stack.end(), id);
    if (it == stack.end()) {
      distances.push_back(kColdDistance);
    } else {
      distances.push_back(static_cast<std::size_t>(it - stack.begin()) + 1);
      stack.erase(it);
    }
    stack.insert(stack.begin(), id);
  }
  return distances;
}

double hit_rate(const std::vector<ObjectId>& trace, std::size_t capacity) {
  if (trace.empty()) return 0.0;
  const auto d = stack_distances(trace);
  std::size_t hits = 0;
  for (auto dist : d) {
    if (dist != kColdDistance && dist <= capacity) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trace.size());
}

std::vector<std::size_t> hits_by_capacity(const std::vector<ObjectId>& trace,
                                          std::size_t max_capacity) {
  std::vector<std::size_t> per_distance(max_capacity + 1, 0);
  for (auto dist : stack_distances(trace)) {
    if (dist != kColdDistance && dist <= max_capacity) ++per_distance[dist];
  }
  // Prefix-sum: hits at capacity c = references with distance <= c.
  std::vector<std::size_t> hits(max_capacity + 1, 0);
  std::size_t cum = 0;
  for (std::size_t c = 1; c <= max_capacity; ++c) {
    cum += per_distance[c];
    hits[c] = cum;
  }
  return hits;
}

std::vector<std::size_t> working_set_sizes(const std::vector<ObjectId>& trace,
                                           std::size_t window) {
  std::vector<std::size_t> sizes;
  sizes.reserve(trace.size());
  if (window == 0) {
    sizes.assign(trace.size(), 0);
    return sizes;
  }
  // Sliding multiset of the last `window` references.
  std::unordered_map<ObjectId, std::size_t> counts;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    ++counts[trace[t]];
    if (t >= window) {
      const ObjectId leaving = trace[t - window];
      auto it = counts.find(leaving);
      if (--it->second == 0) counts.erase(it);
    }
    sizes.push_back(counts.size());
  }
  return sizes;
}

double mean_working_set(const std::vector<ObjectId>& trace,
                        std::size_t window) {
  if (trace.empty()) return 0.0;
  const auto sizes = working_set_sizes(trace, window);
  double sum = 0.0;
  for (auto s : sizes) sum += static_cast<double>(s);
  return sum / static_cast<double>(sizes.size());
}

std::size_t window_for_coverage(const std::vector<ObjectId>& trace,
                                double fraction) {
  if (trace.empty()) return 0;
  std::unordered_map<ObjectId, std::size_t> all;
  for (auto id : trace) ++all[id];
  const double target = fraction * static_cast<double>(all.size());
  for (std::size_t w = 1; w <= trace.size(); w *= 2) {
    if (mean_working_set(trace, w) >= target) {
      // Refine linearly within [w/2, w].
      for (std::size_t v = w / 2 + 1; v <= w; ++v) {
        if (mean_working_set(trace, v) >= target) return v;
      }
      return w;
    }
  }
  return trace.size();
}

DependencyProfile analyze_dependencies(const ConfigStream& stream) {
  DependencyProfile p;
  const auto trace = stream.reference_trace();
  p.references = trace.size();
  p.distinct = stream.distinct_objects().size();

  const auto d = stack_distances(trace);
  std::size_t finite = 0;
  double sum = 0.0;
  for (auto dist : d) {
    if (dist == kColdDistance) {
      ++p.cold_misses;
    } else {
      ++finite;
      sum += static_cast<double>(dist);
      p.max_distance = std::max(p.max_distance, dist);
    }
  }
  p.mean_distance = finite ? sum / static_cast<double>(finite) : 0.0;
  p.min_capacity_for_no_warm_miss = p.max_distance;
  return p;
}

}  // namespace vlsip::arch
