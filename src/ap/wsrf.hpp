// Working-set register file (paper §2.2 stage 5, §2.6.1, Table 3).
//
// The WSRF maintains the acquired elements of the working set [Denning].
// Cache-hit detection is "centrally processed on the WSRF instead of
// searching in the array" (§2.6.1); the acquirement pipeline stage reads
// the acquirement signal from here. The granted channel itself lives in
// the CSD network's route table, not in the WSRF.
//
// Capacity is 40 entries — the "64b x40 Reg. in WSRF" row of Table 3.
// When the working set outgrows the WSRF, the oldest unpinned entry is
// retired (its object stays resident; only the central tag is lost, so a
// later request for it falls back to an array search, costing extra
// cycles — modelled by the pipeline).
//
// The tags form an LRU stack over object ids, so they reuse the object
// space's stack (top = youngest) plus an id-indexed bitmap of the pins.
#pragma once

#include <cstdint>
#include <vector>

#include "ap/object_space.hpp"
#include "arch/object.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::ap {

class Wsrf {
 public:
  explicit Wsrf(int capacity = 40);

  int capacity() const { return order_.capacity(); }
  int size() const { return order_.size(); }

  /// Central tag search (O(1) — searching WSRFs "can be performed in
  /// parallel").
  bool contains(arch::ObjectId id) const { return order_.contains(id); }

  /// Active entries are part of a configured datapath and may not be
  /// retired to make room.
  bool active(arch::ObjectId id) const {
    return id < active_.size() && active_[id];
  }

  /// Inserts or refreshes an entry; retires the oldest inactive entry if
  /// full. Returns false if the WSRF is full of active entries and the
  /// insert was dropped (the pipeline then relies on array search).
  /// Requires id < arch::kObjectIdLimit.
  bool insert(arch::ObjectId id);

  /// Requires an entry for `id`.
  void set_active(arch::ObjectId id, bool active);

  /// Removes the entry when its object is released or evicted.
  void erase(arch::ObjectId id);

  void clear();

  std::size_t retirements() const { return retirements_; }

  /// Checkpoint codec: entries (id, pinned) oldest first, so the
  /// restored stack reproduces retirement order exactly. restore()
  /// checks the stack with ObjectSpace::restore_stack and also rejects a
  /// capacity other than this WSRF's (snapshot::SnapshotError).
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  void unpin(arch::ObjectId id);

  /// Recency order of the tags (top = youngest).
  ObjectSpace order_;
  /// active_[id]: the entry for `id` is pinned. Never set for an absent id.
  std::vector<bool> active_;
  std::size_t retirements_ = 0;
};

}  // namespace vlsip::ap
