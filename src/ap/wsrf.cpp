#include "ap/wsrf.hpp"

#include <algorithm>
#include <vector>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

Wsrf::Wsrf(int capacity) : order_(capacity) {}

void Wsrf::unpin(arch::ObjectId id) {
  if (id < active_.size()) active_[id] = false;
}

bool Wsrf::insert(arch::ObjectId id) {
  if (order_.contains(id)) {
    order_.promote(id);  // refresh: becomes the youngest
    return true;
  }
  if (order_.full()) {
    // Retire the oldest inactive entry.
    const auto& stack = order_.stack();
    const auto victim = std::find_if(
        stack.rbegin(), stack.rend(),
        [this](arch::ObjectId v) { return !active(v); });
    if (victim == stack.rend()) return false;  // all pinned
    order_.remove(*victim);
    ++retirements_;
  }
  order_.insert_top(id);
  return true;
}

void Wsrf::set_active(arch::ObjectId id, bool active) {
  VLSIP_REQUIRE(order_.contains(id), "no WSRF entry for object");
  if (id >= active_.size()) active_.resize(std::size_t{id} + 1, false);
  active_[id] = active;
}

void Wsrf::erase(arch::ObjectId id) {
  if (!order_.contains(id)) return;
  order_.remove(id);
  unpin(id);
}

void Wsrf::clear() {
  while (!order_.empty()) unpin(order_.evict_bottom());
}

void Wsrf::save(snapshot::Writer& w) const {
  w.section("ap.wsrf");
  w.i32(capacity());
  w.u64(order_.stack().size());
  for (auto it = order_.stack().rbegin(); it != order_.stack().rend(); ++it) {
    w.u32(*it);
    w.b(active(*it));
  }
  w.u64(retirements_);
}

void Wsrf::restore(snapshot::Reader& r) {
  r.section("ap.wsrf");
  const int capacity = r.i32();
  if (capacity != this->capacity()) {
    throw snapshot::SnapshotError(
        "snapshot WSRF capacity differs from this WSRF's");
  }
  const std::uint64_t n = r.count(5);
  std::vector<arch::ObjectId> stack(n);  // top (youngest) first
  std::vector<arch::ObjectId> pinned;
  for (std::uint64_t i = 0; i < n; ++i) {
    const arch::ObjectId id = r.u32();
    if (r.b()) pinned.push_back(id);
    stack[n - 1 - i] = id;
  }
  const std::uint64_t retirements = r.u64();
  order_.restore_stack(capacity, std::move(stack));
  active_.assign(active_.size(), false);
  for (const arch::ObjectId id : pinned) set_active(id, true);
  retirements_ = retirements;
}

}  // namespace vlsip::ap
