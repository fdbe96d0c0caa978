// Checkpoint/restore: the snapshot byte format, the whole-chip facade
// round trip, the Status/builder API surface, the replay driver, and
// the farm's restore-replacement-from-checkpoint path.
//
// The bit-identity property sweep (run-N -> save -> restore -> continue
// == uninterrupted run, 100 seeds) lives in test_properties.cpp; this
// file pins down the format contract (reject wrong magic, future
// versions, truncation, section drift — never a partial restore) and
// the API redesign around it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ap/wsrf.hpp"
#include "arch/datapath.hpp"
#include "common/activity_set.hpp"
#include "core/builder.hpp"
#include "core/status.hpp"
#include "core/vlsi_processor.hpp"
#include "csd/dynamic_csd.hpp"
#include "fault/fault_plan.hpp"
#include "noc/router.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"
#include "runtime/manifest.hpp"
#include "runtime/replay.hpp"
#include "snapshot/incremental.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip {
namespace {

// --- byte format ----------------------------------------------------------

TEST(SnapshotFormat, PrimitivesRoundTrip) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u8(0xAB);
  w.b(true);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.i32(-7);
  w.f64(3.5);
  w.str("hello");
  w.section("unit.section");
  w.vec_u32({1, 2, 3});
  w.vec_bool({true, false, true});

  snapshot::Reader r(snap);
  EXPECT_EQ(r.version(), snapshot::kVersionFlat);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_NO_THROW(r.section("unit.section"));
  EXPECT_EQ(r.vec_u32(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_bool(), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(r.done());
}

TEST(SnapshotFormat, ActivitySetWordsRoundTripRebuildsSummary) {
  // The hierarchical ActivitySet checkpoints as flat bitwords only —
  // the format PR 5/6 snapshots already carry. A restore must rebuild
  // the derived summary level so post-restore drains are identical.
  ActivitySet original(9000);  // > one summary word of bitwords
  for (const std::uint32_t id : {0u, 63u, 64u, 4095u, 4096u, 8191u, 8999u}) {
    original.insert(id);
  }

  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(original.size());
  w.vec_u64(original.words());

  snapshot::Reader r(snap);
  ActivitySet restored(9000);
  const auto size = static_cast<std::size_t>(r.u64());
  restored.restore_words(size, r.vec_u64());

  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.words(), original.words());
  std::vector<std::uint32_t> a, b;
  original.drain_to(a);
  restored.drain_to(b);
  EXPECT_EQ(a, b);
  // The rebuilt summary must accept post-restore mutation exactly like
  // a never-snapshotted set: re-insert and drain again.
  for (const auto id : a) restored.insert(id);
  restored.insert(4097);
  b.clear();
  restored.drain_to(b);
  ASSERT_EQ(b.size(), a.size() + 1);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(SnapshotFormat, RejectsWrongMagic) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(1);
  snap.bytes()[0] ^= 0xFF;
  EXPECT_THROW(snapshot::Reader r(snap), snapshot::SnapshotError);
}

TEST(SnapshotFormat, RejectsFutureVersion) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(1);
  // The version lives in bytes [4, 8); a reader from today must refuse
  // a snapshot stamped by tomorrow's writer rather than misread it.
  snap.bytes()[4] = static_cast<std::uint8_t>(snapshot::kVersionFlat + 1);
  try {
    snapshot::Reader r(snap);
    FAIL() << "future version accepted";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("is newer than flat version 3"),
              std::string::npos);
  }
}

TEST(SnapshotFormat, AcceptsCurrentVersion) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.str("payload");
  snapshot::Reader r(snap);
  EXPECT_EQ(r.version(), snapshot::kVersionFlat);
  EXPECT_EQ(r.str(), "payload");
}

TEST(SnapshotFormat, RejectsHeaderlessBuffer) {
  snapshot::Snapshot snap;
  snap.bytes() = {0x50, 0x4E, 0x53};
  EXPECT_THROW(snapshot::Reader r(snap), snapshot::SnapshotError);
}

TEST(SnapshotFormat, RejectsTruncation) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(7);
  snap.bytes().pop_back();
  snapshot::Reader r(snap);
  EXPECT_THROW(r.u64(), snapshot::SnapshotError);
}

TEST(SnapshotFormat, SectionMismatchNamesBothTags) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("ap.executor");
  snapshot::Reader r(snap);
  try {
    r.section("noc.router");
    FAIL() << "section mismatch accepted";
  } catch (const snapshot::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("noc.router"), std::string::npos);
    EXPECT_NE(what.find("ap.executor"), std::string::npos);
  }
}

TEST(SnapshotFormat, CorruptCountCannotDriveGiantAllocation) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(0xFFFFFFFFFFFFull);  // a "length" far beyond the payload
  snapshot::Reader r(snap);
  EXPECT_THROW(r.vec_u64(), snapshot::SnapshotError);
}

TEST(SnapshotFormat, FileRoundTrip) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("file.test");
  w.u64(99);
  const std::string path = ::testing::TempDir() + "/roundtrip.vsnap";
  snapshot::write_file(snap, path);
  const auto loaded = snapshot::read_file(path);
  EXPECT_EQ(loaded.bytes(), snap.bytes());
  std::remove(path.c_str());
}

// --- WSRF section ----------------------------------------------------------

/// An ap.wsrf section holding `ids` oldest first, none pinned.
snapshot::Snapshot wsrf_section(int capacity,
                                const std::vector<arch::ObjectId>& ids) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("ap.wsrf");
  w.i32(capacity);
  w.u64(ids.size());
  for (const arch::ObjectId id : ids) {
    w.u32(id);
    w.b(false);
  }
  w.u64(0);
  return snap;
}

/// Restores `snap` into a WSRF of capacity 4 holding {3}; expects a
/// SnapshotError and the WSRF left as it was.
void expect_wsrf_rejects(const snapshot::Snapshot& snap) {
  ap::Wsrf w(4);
  w.insert(3);
  snapshot::Reader r(snap);
  EXPECT_THROW(w.restore(r), snapshot::SnapshotError);
  EXPECT_EQ(w.capacity(), 4);
  EXPECT_EQ(w.size(), 1);
  EXPECT_TRUE(w.contains(3));
}

TEST(WsrfRestore, RejectsCapacityBelowOne) {
  expect_wsrf_rejects(wsrf_section(0, {}));
}

TEST(WsrfRestore, RejectsCapacityOtherThanConstructed) {
  expect_wsrf_rejects(wsrf_section(8, {1}));
}

TEST(WsrfRestore, RejectsMoreEntriesThanCapacity) {
  expect_wsrf_rejects(wsrf_section(4, {1, 2, 5, 6, 7}));
}

TEST(WsrfRestore, RejectsRepeatedId) {
  expect_wsrf_rejects(wsrf_section(4, {1, 2, 1}));
}

TEST(WsrfRestore, RejectsIdOutOfRange) {
  expect_wsrf_rejects(wsrf_section(4, {1, arch::kObjectIdLimit}));
}

TEST(WsrfRestore, AcceptsConsistentSection) {
  ap::Wsrf w(4);
  w.insert(3);
  const snapshot::Snapshot snap = wsrf_section(4, {1, 2});
  snapshot::Reader r(snap);
  w.restore(r);
  EXPECT_EQ(w.size(), 2);
  EXPECT_FALSE(w.contains(3));
  // 1 is the oldest, so a full WSRF retires it first.
  w.insert(5);
  w.insert(6);
  w.insert(7);
  EXPECT_FALSE(w.contains(1));
  EXPECT_TRUE(w.contains(2));
}

// --- whole-chip facade ----------------------------------------------------

core::ChipConfig small_chip() {
  return core::ChipConfigBuilder().grid(2, 2).build();
}

TEST(ChipCheckpoint, SaveRestoreSaveIsByteIdentical) {
  // Determinism contract: restoring a checkpoint and re-saving must
  // reproduce the exact bytes — no timestamps, pointers, or hash
  // ordering in the encoding.
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);
  const auto result = chip.run_program(
      proc, arch::linear_pipeline_program(3),
      {{"in", {arch::make_word_i(5)}}}, 1, 100000);
  ASSERT_TRUE(result.exec.completed);

  snapshot::Snapshot first;
  ASSERT_TRUE(chip.save(first).ok());

  core::VlsiProcessor twin(small_chip());
  ASSERT_TRUE(twin.restore(first).ok());
  snapshot::Snapshot second;
  ASSERT_TRUE(twin.save(second).ok());
  EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(ChipCheckpoint, RestoredChipContinuesIdentically) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);

  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());

  core::VlsiProcessor twin(small_chip());
  ASSERT_TRUE(twin.restore(checkpoint).ok());

  // Both chips now hold the same fused processor; the same program must
  // behave identically on each.
  const auto inputs = std::map<std::string, std::vector<arch::Word>>{
      {"in", {arch::make_word_i(9)}}};
  const auto a =
      chip.run_program(proc, arch::linear_pipeline_program(4), inputs, 1,
                       100000);
  const auto b =
      twin.run_program(proc, arch::linear_pipeline_program(4), inputs, 1,
                       100000);
  EXPECT_EQ(a.exec.cycles, b.exec.cycles);
  EXPECT_EQ(a.exec.firings, b.exec.firings);
  EXPECT_EQ(a.config.cycles, b.config.cycles);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (const auto& [port, words] : a.outputs) {
    const auto it = b.outputs.find(port);
    ASSERT_NE(it, b.outputs.end());
    ASSERT_EQ(words.size(), it->second.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(words[i].u, it->second[i].u);
    }
  }
}

TEST(ChipCheckpoint, GeometryMismatchIsRejected) {
  core::VlsiProcessor chip(small_chip());
  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());

  core::VlsiProcessor bigger(core::ChipConfigBuilder().grid(4, 4).build());
  const Status restored = bigger.restore(checkpoint);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot);
  EXPECT_NE(restored.message().find("geometry"), std::string::npos);
}

TEST(ChipCheckpoint, CorruptBufferSurfacesAsStatus) {
  core::VlsiProcessor chip(small_chip());
  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());
  checkpoint.bytes().resize(checkpoint.size() / 2);
  const Status restored = chip.restore(checkpoint);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot);
}

/// Offsets just past every `tag` section marker in `snap`, in order.
std::vector<std::size_t> section_payloads(const snapshot::Snapshot& snap,
                                          const std::string& tag) {
  std::vector<std::uint8_t> marker(8);
  const std::uint64_t n = tag.size();
  std::memcpy(marker.data(), &n, sizeof n);
  marker.insert(marker.end(), tag.begin(), tag.end());
  std::vector<std::size_t> out;
  const auto& bytes = snap.bytes();
  auto it = bytes.begin();
  while ((it = std::search(it, bytes.end(), marker.begin(), marker.end())) !=
         bytes.end()) {
    it += static_cast<std::ptrdiff_t>(marker.size());
    out.push_back(static_cast<std::size_t>(it - bytes.begin()));
  }
  return out;
}

template <typename T>
T load(const snapshot::Snapshot& snap, std::size_t at) {
  T v;
  std::memcpy(&v, snap.bytes().data() + at, sizeof v);
  return v;
}

template <typename T>
void store(snapshot::Snapshot& snap, std::size_t at, T v) {
  std::memcpy(snap.bytes().data() + at, &v, sizeof v);
}

/// A chip that has run a job, so its stacks and routes are populated.
snapshot::Snapshot busy_chip_checkpoint() {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  EXPECT_NE(proc, scaling::kNoProc);
  const auto result = chip.run_program(
      proc, arch::linear_pipeline_program(3),
      {{"in", {arch::make_word_i(5)}}}, 1, 100000);
  EXPECT_TRUE(result.exec.completed);
  snapshot::Snapshot checkpoint;
  EXPECT_TRUE(chip.save(checkpoint).ok());
  return checkpoint;
}

TEST(ChipCheckpoint, InconsistentObjectStackIsCorrupt) {
  // ap.object_space: i32 capacity, u64 count, count x u32 ids.
  for (const bool duplicate : {true, false}) {
    snapshot::Snapshot checkpoint = busy_chip_checkpoint();
    bool patched = false;
    for (const std::size_t at : section_payloads(checkpoint,
                                                 "ap.object_space")) {
      if (load<std::uint64_t>(checkpoint, at + 4) < 2) continue;
      const std::size_t ids = at + 12;
      store<std::uint32_t>(checkpoint, ids + 4,
                           duplicate ? load<std::uint32_t>(checkpoint, ids)
                                     : arch::kObjectIdLimit);
      patched = true;
      break;
    }
    ASSERT_TRUE(patched);
    core::VlsiProcessor chip(small_chip());
    const Status restored = chip.restore(checkpoint);
    EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
        << restored.message();
  }
}

TEST(ChipCheckpoint, ObjectSpaceLargerThanArrayIsCorrupt) {
  // ap.object_space: i32 capacity first. A capacity above the AP's
  // array would place objects past the CSD network's positions.
  snapshot::Snapshot checkpoint = busy_chip_checkpoint();
  const auto sections = section_payloads(checkpoint, "ap.object_space");
  ASSERT_FALSE(sections.empty());
  for (const std::size_t at : sections) {
    store<std::int32_t>(checkpoint, at, load<std::int32_t>(checkpoint, at) + 1);
  }
  core::VlsiProcessor chip(small_chip());
  const Status restored = chip.restore(checkpoint);
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
      << restored.message();
}

TEST(ChipCheckpoint, InconsistentWsrfIsCorrupt) {
  // ap.wsrf: i32 capacity, u64 count, count x (u32 id, u8 active).
  for (const bool duplicate : {true, false}) {
    snapshot::Snapshot checkpoint = busy_chip_checkpoint();
    bool patched = false;
    for (const std::size_t at : section_payloads(checkpoint, "ap.wsrf")) {
      if (load<std::uint64_t>(checkpoint, at + 4) < 2) continue;
      const std::size_t ids = at + 12;
      store<std::uint32_t>(checkpoint, ids + 5,
                           duplicate ? load<std::uint32_t>(checkpoint, ids)
                                     : arch::kObjectIdLimit);
      patched = true;
      break;
    }
    ASSERT_TRUE(patched);
    core::VlsiProcessor chip(small_chip());
    const Status restored = chip.restore(checkpoint);
    EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
        << restored.message();
  }
}

TEST(ChipCheckpoint, RouteOverDeadSegmentIsCorrupt) {
  // csd.network: u32 positions, u32 channels, u64 n, n x (id, source,
  // sink, channel) u32s, u64 + u32 free slots, u64 active, u64 + u8
  // dead map.
  snapshot::Snapshot checkpoint = busy_chip_checkpoint();
  bool patched = false;
  for (const std::size_t at : section_payloads(checkpoint, "csd.network")) {
    const auto positions = load<std::uint32_t>(checkpoint, at);
    const auto n = load<std::uint64_t>(checkpoint, at + 8);
    const std::size_t routes = at + 16;
    const std::size_t free_count = routes + n * 16;
    const std::size_t dead_map =
        free_count + 8 + load<std::uint64_t>(checkpoint, free_count) * 4 + 8 +
        8;
    for (std::size_t i = 0; i < n && !patched; ++i) {
      const std::size_t route = routes + i * 16;
      if (load<std::uint32_t>(checkpoint, route) == csd::kNoRoute) continue;
      const auto source = load<std::uint32_t>(checkpoint, route + 4);
      const auto sink = load<std::uint32_t>(checkpoint, route + 8);
      const auto channel = load<std::uint32_t>(checkpoint, route + 12);
      const std::size_t segment =
          std::size_t{channel} * (positions - 1) + std::min(source, sink);
      store<std::uint8_t>(checkpoint, dead_map + segment, 1);
      patched = true;
    }
    if (patched) break;
  }
  ASSERT_TRUE(patched);
  core::VlsiProcessor chip(small_chip());
  const Status restored = chip.restore(checkpoint);
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
      << restored.message();
}

/// A default 8x8 chip after one fuse and release, saved: every
/// noc.router section is present and its queues are drained.
snapshot::Snapshot fused_and_released_checkpoint() {
  core::VlsiProcessor chip;
  const auto proc = chip.fuse(4);
  EXPECT_NE(proc, scaling::kNoProc);
  chip.release(proc);
  snapshot::Snapshot checkpoint;
  EXPECT_TRUE(chip.save(checkpoint).ok());
  return checkpoint;
}

TEST(ChipCheckpoint, MalformedRouterQueuesAreCorrupt) {
  // noc.router: u64 n, n flits of 23 bytes, then kPortCount * kMaxVcs
  // u32 heads, as many u32 lengths and i32 locks, and kPortCount i32
  // round-robin pointers. The default router has depth 4 and one VC, so
  // queues 0..4 exist.
  constexpr std::size_t kFlitBytes = 23;
  constexpr std::size_t kSlots = noc::kPortCount * noc::kMaxVcs;
  struct Patch {
    const char* what;
    std::size_t field;  // 0 head, 1 len, 2 owner, 3 rr
    std::size_t index;
    std::int32_t value;
  };
  const Patch patches[] = {
      {"head past the ring", 0, 0, 60000},
      {"head at depth", 0, 0, 4},
      {"length above depth", 1, 0, 5},
      {"non-empty queue past the last VC", 1, noc::kPortCount, 1},
      {"lock naming no queue", 2, 0, noc::kPortCount},
      {"lock below -1", 2, 0, -2},
      {"round-robin past the inputs", 3, 0, noc::kPortCount},
      {"negative round-robin", 3, 0, -1},
  };
  for (const Patch& patch : patches) {
    snapshot::Snapshot checkpoint = fused_and_released_checkpoint();
    const auto sections = section_payloads(checkpoint, "noc.router");
    ASSERT_FALSE(sections.empty());
    const std::size_t at = sections.front();
    const std::size_t heads =
        at + 8 + load<std::uint64_t>(checkpoint, at) * kFlitBytes;
    const std::size_t field = heads + patch.field * kSlots * 4;
    store<std::int32_t>(checkpoint, field + patch.index * 4, patch.value);
    if (patch.field == 0) {
      store<std::uint32_t>(checkpoint, heads + kSlots * 4, 1);  // len_[0]
    }
    core::VlsiProcessor chip;
    const Status restored = chip.restore(checkpoint);
    EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
        << patch.what << ": " << restored.message();
  }
  // The unpatched checkpoint restores and the chip keeps serving.
  core::VlsiProcessor chip;
  ASSERT_TRUE(chip.restore(fused_and_released_checkpoint()).ok());
  EXPECT_NE(chip.fuse(4), scaling::kNoProc);
}

TEST(ChipCheckpoint, ChainRouteNotItsOwnIsCorrupt) {
  // ap.chain_set: u64 n, n x (u32 source, u32 sink, i32 operand,
  // u32 route). A route out of the network's range, or one another
  // chain holds, would make every later release of it throw.
  core::VlsiProcessor original(small_chip());
  const auto proc = original.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);
  ASSERT_TRUE(original
                  .run_program(proc, arch::linear_pipeline_program(6),
                               {{"in", {arch::make_word_i(5)}}}, 1, 100000)
                  .exec.completed);
  snapshot::Snapshot saved;
  ASSERT_TRUE(original.save(saved).ok());
  for (const bool shared : {false, true}) {
    snapshot::Snapshot checkpoint = saved;
    bool patched = false;
    for (const std::size_t at : section_payloads(checkpoint, "ap.chain_set")) {
      std::vector<std::size_t> routed;
      const auto n = load<std::uint64_t>(checkpoint, at);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t route = at + 8 + i * 16 + 12;
        if (load<std::uint32_t>(checkpoint, route) != csd::kNoRoute) {
          routed.push_back(route);
        }
      }
      if (routed.size() < 2) continue;
      store<std::uint32_t>(
          checkpoint, routed[0],
          shared ? load<std::uint32_t>(checkpoint, routed[1]) : 60000u);
      patched = true;
      break;
    }
    ASSERT_TRUE(patched);
    core::VlsiProcessor chip(small_chip());
    const Status restored = chip.restore(checkpoint);
    EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
        << (shared ? "shared route: " : "route 60000: ") << restored.message();
  }
  core::VlsiProcessor chip(small_chip());
  EXPECT_TRUE(chip.restore(saved).ok());
}

TEST(ChipCheckpoint, OlderFlatLayoutIsCorrupt) {
  // Version 1 flat snapshots carried fields layout 3 dropped; no reader
  // for them is kept, so the header alone rejects one.
  core::VlsiProcessor chip(small_chip());
  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());
  store<std::uint32_t>(checkpoint, 4, 1);
  const Status restored = chip.restore(checkpoint);
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot);
  EXPECT_NE(restored.message().find("older layout"), std::string::npos)
      << restored.message();
}

// --- Status facade --------------------------------------------------------

TEST(StatusFacade, TryFuseReportsExhaustionAsUnavailable) {
  core::VlsiProcessor chip(small_chip());
  const auto ok = chip.try_fuse(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(*ok, scaling::kNoProc);

  const auto too_big = chip.try_fuse(64);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kUnavailable);
}

TEST(StatusFacade, TrySplitReportsBadIdAsInvalidArgument) {
  core::VlsiProcessor chip(small_chip());
  const Status s = chip.try_split(scaling::ProcId{9999}, 1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(StatusFacade, StatusToStringCarriesCodeName) {
  const Status s(StatusCode::kCorruptSnapshot, "bad bytes");
  EXPECT_EQ(s.to_string(), "corrupt_snapshot: bad bytes");
  EXPECT_EQ(Status::Ok().to_string(), "ok");
}

// --- config builders ------------------------------------------------------

TEST(Builders, ChipConfigBuilderValidates) {
  const auto bad = core::ChipConfigBuilder().grid(0, 3).try_build();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  const auto cfg = core::ChipConfigBuilder()
                       .grid(3, 2)
                       .layers(2)
                       .router(8, 2)
                       .event_driven(true)
                       .build();
  EXPECT_EQ(cfg.width, 3);
  EXPECT_EQ(cfg.height, 2);
  EXPECT_EQ(cfg.layers, 2);
  EXPECT_EQ(cfg.router.queue_depth, 8u);
  EXPECT_EQ(cfg.router.virtual_channels, 2u);
}

TEST(Builders, FarmConfigBuilderValidates) {
  const auto bad = runtime::FarmConfigBuilder().workers(0).try_build();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  const auto cfg = runtime::FarmConfigBuilder()
                       .deterministic()
                       .batch(4)
                       .checkpoint_every(2)
                       .build();
  EXPECT_TRUE(cfg.deterministic);
  EXPECT_EQ(cfg.batch.max_jobs, 4u);
  EXPECT_EQ(cfg.checkpoint_every_batches, 2u);
}

// --- replay driver --------------------------------------------------------

scaling::Job pipeline_job(const std::string& name, std::int64_t token) {
  scaling::Job job;
  job.name = name;
  job.program = arch::linear_pipeline_program(3);
  job.inputs = {{"in", {arch::make_word_i(token)}}};
  job.expected_per_output = 1;
  job.requested_clusters = 1;
  return job;
}

TEST(Replay, LogRoundTripsThroughSnapshot) {
  runtime::ReplayLog log;
  log.jobs = {pipeline_job("alpha", 3), pipeline_job("beta", -8)};
  log.next_job = 1;
  log.checkpoint_tick = 777;

  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  log.save(w);
  snapshot::Reader r(snap);
  runtime::ReplayLog back;
  back.restore(r);

  ASSERT_EQ(back.jobs.size(), 2u);
  EXPECT_EQ(back.jobs[0].name, "alpha");
  EXPECT_EQ(back.jobs[1].name, "beta");
  EXPECT_EQ(back.jobs[1].inputs.at("in")[0].i, -8);
  EXPECT_EQ(back.next_job, 1u);
  EXPECT_EQ(back.checkpoint_tick, 777u);
}

TEST(Replay, ReplayFromCheckpointServesRemainingJobs) {
  core::VlsiProcessor chip(small_chip());
  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());

  runtime::ReplayLog log;
  log.jobs = {pipeline_job("done-already", 1), pipeline_job("pending-a", 2),
              pipeline_job("pending-b", 3)};
  log.next_job = 1;  // the first job finished before the checkpoint
  log.checkpoint_tick = 42;

  core::VlsiProcessor replayer(small_chip());
  const auto outcomes = runtime::replay_from(replayer, checkpoint, log);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.status, scaling::JobStatus::kCompleted);
    EXPECT_EQ(o.resumed_from_cycle, 42u);
  }
  EXPECT_EQ(outcomes[0].name, "pending-a");
  EXPECT_EQ(outcomes[1].name, "pending-b");
}

// --- farm integration -----------------------------------------------------

TEST(FarmCheckpoint, QuarantineRestoresReplacementFromLastCheckpoint) {
  // A worker crash mid-manifest quarantines the chip. With
  // checkpointing on, the replacement must resume from the last
  // batch-boundary checkpoint — visible as resumed_from_cycle on every
  // outcome it serves — and still lose zero jobs.
  runtime::SyntheticSpec spec;
  spec.jobs = 16;
  spec.seed = 3;
  const auto jobs = runtime::synthetic_jobs(spec);

  fault::FaultPlan plan;
  plan.events = {{8, fault::FaultKind::kWorkerCrash, 0, 0}};
  // Batches of 4: the crash at serve-sequence 8 lands in the third
  // batch, after two batch-boundary checkpoints have been taken.
  runtime::FarmConfig cfg = runtime::FarmConfigBuilder()
                                .deterministic()
                                .batch(4)
                                .fault_tolerance(plan)
                                .checkpoint_every(1)
                                .build();

  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) {
    EXPECT_TRUE(farm.submit(job).admitted);
  }
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  farm.shutdown();

  EXPECT_EQ(metrics.admitted, metrics.served() + metrics.cancelled);
  EXPECT_EQ(metrics.completed, 16u);
  EXPECT_EQ(metrics.quarantined_chips, 1u);
  EXPECT_GE(metrics.checkpoints, 1u);
  EXPECT_EQ(metrics.chip_restores, 1u);

  std::size_t resumed = 0;
  for (const auto& o : log) {
    if (o.resumed_from_cycle > 0) ++resumed;
  }
  EXPECT_GE(resumed, 1u) << "no outcome recorded the restore point";
}

TEST(FarmCheckpoint, SecondQuarantineBeforeNextCheckpointRestoresAgain) {
  // Two crashes inside one checkpoint interval: the second replacement
  // must resume from the same checkpoint as the first, not from blank
  // silicon. Quarantine breaks the delta chain but keeps the snapshot.
  runtime::SyntheticSpec spec;
  spec.jobs = 24;
  spec.seed = 3;
  const auto jobs = runtime::synthetic_jobs(spec);

  fault::FaultPlan plan;
  // Batches of 4, a checkpoint every third batch: the first lands after
  // serve-sequence 12. The crashes hit the fourth and fifth batches,
  // both before the second checkpoint.
  plan.events = {{13, fault::FaultKind::kWorkerCrash, 0, 0},
                 {17, fault::FaultKind::kWorkerCrash, 0, 0}};
  for (const bool incremental : {false, true}) {
    runtime::FarmConfigBuilder builder;
    builder.deterministic().batch(4).fault_tolerance(plan).checkpoint_every(
        3);
    builder.incremental_checkpoints(incremental);
    runtime::ChipFarm farm(builder.build());
    for (const auto& job : jobs) {
      EXPECT_TRUE(farm.submit(job).admitted);
    }
    farm.drain();
    const auto metrics = farm.metrics();
    farm.shutdown();

    EXPECT_EQ(metrics.completed, 24u) << "incremental=" << incremental;
    EXPECT_EQ(metrics.quarantined_chips, 2u) << "incremental=" << incremental;
    EXPECT_EQ(metrics.chip_restores, 2u) << "incremental=" << incremental;
  }
}

// --- incremental checkpoints ----------------------------------------------

TEST(IncrementalCheckpoint, FlatSnapshotsStampVersionThree) {
  // Flat snapshots carry layout 3; the delta container keeps its own
  // stamp, 2, so the two never read as each other.
  core::VlsiProcessor chip(small_chip());
  snapshot::Snapshot snap;
  ASSERT_TRUE(chip.save(snap).ok());
  snapshot::Reader r(snap);
  EXPECT_EQ(r.version(), 3u);
  EXPECT_EQ(snapshot::kVersionFlat, 3u);
  EXPECT_NE(snapshot::kVersionFlat, snapshot::kVersionContainer);
  EXPECT_FALSE(snapshot::is_delta(snap));
}

TEST(IncrementalCheckpoint, SaveProfiledIsByteIdenticalToPlainSave) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);

  snapshot::Snapshot plain;
  ASSERT_TRUE(chip.save(plain).ok());
  core::SaveProfile profile;
  ASSERT_TRUE(chip.save_profiled(profile).ok());
  EXPECT_EQ(profile.flat.bytes(), plain.bytes());
  EXPECT_FALSE(profile.index.entries.empty());

  // The two-argument overload ignores its base: with and without
  // mutations in between it must produce the exact full-save bytes.
  core::SaveProfile unchanged;
  ASSERT_TRUE(chip.save_profiled(unchanged, profile).ok());
  EXPECT_EQ(unchanged.flat.bytes(), plain.bytes());

  chip.release(proc);
  const auto proc2 = chip.fuse(3);
  ASSERT_NE(proc2, scaling::kNoProc);
  core::SaveProfile after;
  ASSERT_TRUE(chip.save_profiled(after, unchanged).ok());
  snapshot::Snapshot plain_after;
  ASSERT_TRUE(chip.save(plain_after).ok());
  EXPECT_EQ(after.flat.bytes(), plain_after.bytes());
}

TEST(IncrementalCheckpoint, DeltaChainBeatsFullSnapshotsOnBytes) {
  // The headline claim: checkpointing every batch, the emitted bytes
  // of the incremental path must be well under the full-snapshot cost.
  // Full-size chip: a fuse touches a couple of clusters out of 64, so
  // the delta must stay a small fraction of the flat snapshot.
  core::VlsiProcessor chip;
  core::SaveProfile profile;
  ASSERT_TRUE(chip.save_profiled(profile).ok());

  std::size_t delta_bytes = 0;
  std::size_t full_bytes = 0;
  for (int round = 0; round < 6; ++round) {
    const auto proc = chip.fuse(1 + (round % 2));
    ASSERT_NE(proc, scaling::kNoProc);
    core::SaveProfile base = std::move(profile);
    ASSERT_TRUE(chip.save_profiled(profile, base).ok());
    const snapshot::Snapshot delta = snapshot::encode_delta(
        base.flat, base.index, profile.flat, profile.index);
    delta_bytes += delta.size();
    full_bytes += profile.flat.size();
    const auto applied = snapshot::apply_delta(base.flat, delta);
    ASSERT_TRUE(applied.ok()) << applied.status().message();
    ASSERT_EQ(applied->bytes(), profile.flat.bytes());
    chip.release(proc);
  }
  // Acceptance floor is <= 30% on the steady-state bench; unit scale
  // is rougher, but even here deltas must clearly win.
  EXPECT_LT(delta_bytes * 2, full_bytes)
      << delta_bytes << " delta bytes vs " << full_bytes << " full bytes";
}

TEST(FarmCheckpoint, IncrementalChainMaterializesToCurrentChip) {
  runtime::SyntheticSpec spec;
  spec.jobs = 12;
  spec.seed = 7;
  const auto jobs = runtime::synthetic_jobs(spec);

  runtime::FarmConfig cfg = runtime::FarmConfigBuilder()
                                .deterministic()
                                .batch(3)
                                .checkpoint_every(1)
                                .incremental_checkpoints(true)
                                .build();
  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) {
    EXPECT_TRUE(farm.submit(job).admitted);
  }
  farm.drain();

  // The chain, materialized, must be byte-identical to a full snapshot
  // of the same idle chip.
  snapshot::Snapshot full;
  ASSERT_TRUE(farm.save_chip(0, full).ok());
  std::vector<snapshot::Snapshot> chain;
  ASSERT_TRUE(farm.save_chip_chain(0, chain).ok());
  ASSERT_FALSE(chain.empty());
  EXPECT_FALSE(snapshot::is_delta(chain.front()));
  const auto materialized = snapshot::materialize_chain(chain);
  ASSERT_TRUE(materialized.ok()) << materialized.status().message();
  EXPECT_EQ(materialized->bytes(), full.bytes());

  const auto metrics = farm.metrics();
  farm.shutdown();
  ASSERT_GE(metrics.checkpoints, 3u);
  // After the first keyframe every cadence checkpoint emitted a delta:
  // the emitted-bytes series must undercut the full-bytes series.
  EXPECT_LT(metrics.checkpoint_bytes.mean(),
            metrics.checkpoint_full_bytes.mean());
}

TEST(FarmCheckpoint, IncrementalEveryBatchChaosLosesNothing) {
  // The acceptance gate: checkpoint_every_batches=1 with incremental
  // encoding, a crash and a chip fault mid-run — every admitted job
  // still resolves, the replacement chip restores from checkpoint.
  runtime::SyntheticSpec spec;
  spec.jobs = 16;
  spec.seed = 3;
  const auto jobs = runtime::synthetic_jobs(spec);

  fault::FaultPlan plan;
  plan.events = {{6, fault::FaultKind::kCluster, 1, 0},
                 {11, fault::FaultKind::kWorkerCrash, 0, 0}};
  runtime::FarmConfig cfg = runtime::FarmConfigBuilder()
                                .deterministic()
                                .batch(4)
                                .fault_tolerance(plan)
                                .checkpoint_every(1)
                                .incremental_checkpoints(true)
                                .build();

  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) {
    EXPECT_TRUE(farm.submit(job).admitted);
  }
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  farm.shutdown();

  // No admitted job lost: everything resolved one way or another.
  EXPECT_EQ(metrics.admitted, metrics.served() + metrics.cancelled);
  EXPECT_EQ(log.size(), metrics.served());
  EXPECT_EQ(metrics.quarantined_chips, 1u);
  EXPECT_EQ(metrics.chip_restores, 1u);
  EXPECT_GE(metrics.checkpoints, 2u);

  std::size_t resumed = 0;
  for (const auto& o : log) {
    if (o.resumed_from_cycle > 0) ++resumed;
  }
  EXPECT_GE(resumed, 1u) << "no outcome recorded the restore point";
}

TEST(FarmCheckpoint, KeyframeCadenceBoundsTheChain) {
  runtime::SyntheticSpec spec;
  spec.jobs = 20;
  spec.seed = 5;
  const auto jobs = runtime::synthetic_jobs(spec);

  runtime::FarmConfig cfg = runtime::FarmConfigBuilder()
                                .deterministic()
                                .batch(2)
                                .checkpoint_every(1)
                                .incremental_checkpoints(true)
                                .checkpoint_keyframe_every(2)
                                .build();
  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) farm.submit(job);
  farm.drain();

  std::vector<snapshot::Snapshot> chain;
  ASSERT_TRUE(farm.save_chip_chain(0, chain).ok());
  farm.shutdown();
  // keyframe + at most 2 cadence deltas + at most 1 drain-time delta.
  EXPECT_LE(chain.size(), 4u);
  ASSERT_FALSE(chain.empty());
  EXPECT_FALSE(snapshot::is_delta(chain.front()));
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_TRUE(snapshot::is_delta(chain[i])) << "link " << i;
  }
}

TEST(FarmCheckpoint, CheckpointingOffByDefaultAndInvisible) {
  // checkpoint_every_batches defaults to 0: no checkpoints, no
  // restores, outcomes bit-identical to a farm that has never heard of
  // snapshots (the hot path must not change).
  runtime::SyntheticSpec spec;
  spec.jobs = 8;
  spec.seed = 11;
  const auto jobs = runtime::synthetic_jobs(spec);

  runtime::FarmConfig plain;
  plain.deterministic = true;
  runtime::ChipFarm farm(plain);
  for (const auto& job : jobs) farm.submit(job);
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  farm.shutdown();

  EXPECT_EQ(metrics.checkpoints, 0u);
  EXPECT_EQ(metrics.chip_restores, 0u);
  for (const auto& o : log) {
    EXPECT_EQ(o.resumed_from_cycle, 0u);
  }
}

}  // namespace
}  // namespace vlsip
