// Tests for the adaptive processor: object space, WSRF, configuration
// pipeline, dataflow executor and the AP facade (paper §2).
#include <gtest/gtest.h>

#include <algorithm>

#include "ap/adaptive_processor.hpp"
#include "ap/executor.hpp"
#include "ap/memory_block.hpp"
#include "ap/object_space.hpp"
#include "ap/pipeline.hpp"
#include "ap/wsrf.hpp"
#include "arch/datapath.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {
namespace {

using arch::DatapathBuilder;
using arch::Opcode;
using arch::Program;

// ---- MemoryBlock / ObjectLibrary --------------------------------------------

TEST(MemoryBlock, ReadWriteRoundTrip) {
  MemoryBlock m;
  m.write(100, arch::make_word_i(-42));
  EXPECT_EQ(m.read(100).i, -42);
  EXPECT_EQ(m.size(), 64u * 1024 / 8);
}

TEST(MemoryBlock, BoundsChecked) {
  MemoryBlock m(MemoryBlockConfig{16, 1});
  EXPECT_THROW(m.read(16), vlsip::PreconditionError);
  EXPECT_THROW(m.write(99, arch::make_word_u(0)), vlsip::PreconditionError);
}

TEST(MemoryBlock, FillBulk) {
  MemoryBlock m(MemoryBlockConfig{8, 1});
  m.fill(2, {arch::make_word_u(1), arch::make_word_u(2)});
  EXPECT_EQ(m.read(3).u, 2u);
  EXPECT_THROW(m.fill(7, {arch::make_word_u(0), arch::make_word_u(0)}),
               vlsip::PreconditionError);
}

std::vector<std::uint8_t> saved_bytes(const MemoryBlock& m) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  m.save(w);
  return snap.bytes();
}

TEST(MemoryBlock, UnwrittenBlockReadsZeroAndSavesLikeAZeroedOne) {
  // Storage is allocated on the first nonzero write; a block without it
  // must be indistinguishable from one explicitly filled with zeros.
  const MemoryBlockConfig config{64, 1};
  MemoryBlock lazy(config);
  MemoryBlock zeroed(config);
  zeroed.fill(0, std::vector<arch::Word>(64, arch::make_word_u(0)));
  zeroed.write(7, arch::make_word_u(0));
  for (std::size_t a = 0; a < 64; ++a) EXPECT_EQ(lazy.read(a).u, 0u);
  EXPECT_EQ(saved_bytes(lazy), saved_bytes(zeroed));

  // After a nonzero word is written and overwritten with 0 the bytes
  // still match: only nonzero words are ever saved.
  zeroed.write(9, arch::make_word_u(5));
  EXPECT_EQ(zeroed.read(9).u, 5u);
  EXPECT_NE(saved_bytes(lazy), saved_bytes(zeroed));
  zeroed.write(9, arch::make_word_u(0));
  EXPECT_EQ(saved_bytes(lazy), saved_bytes(zeroed));

  // A restore with no nonzero word leaves the block reading 0.
  MemoryBlock written(config);
  written.write(3, arch::make_word_u(11));
  snapshot::Snapshot snap;
  {
    snapshot::Writer w(snap);
    lazy.save(w);
  }
  snapshot::Reader r(snap);
  written.restore(r);
  EXPECT_EQ(written.read(3).u, 0u);
  EXPECT_EQ(saved_bytes(written), saved_bytes(lazy));
}

TEST(MemoryBlock, PoisonBeforeFirstWrite) {
  MemoryBlock m(MemoryBlockConfig{16, 1});
  m.poison();
  EXPECT_EQ(m.read(4).u, MemoryBlock::poison_word().u);
  m.write(4, arch::make_word_u(1));  // dropped
  MemoryBlock fresh(MemoryBlockConfig{16, 1});
  fresh.poison();
  EXPECT_EQ(saved_bytes(m), saved_bytes(fresh));
}

TEST(ObjectLibrary, StoreFetch) {
  ObjectLibrary lib(5);
  arch::LogicalObject o;
  o.id = 3;
  o.config.opcode = Opcode::kIAdd;
  lib.store(o);
  EXPECT_TRUE(lib.contains(3));
  EXPECT_EQ(lib.fetch(3).config.opcode, Opcode::kIAdd);
  EXPECT_EQ(lib.load_latency(), 5);
  EXPECT_THROW(lib.fetch(9), vlsip::PreconditionError);
}

TEST(ObjectLibrary, WriteBackCounts) {
  ObjectLibrary lib;
  arch::LogicalObject o;
  o.id = 1;
  lib.store(o);
  lib.write_back(1);
  EXPECT_EQ(lib.write_backs(), 1u);
  EXPECT_THROW(lib.write_back(2), vlsip::PreconditionError);
  EXPECT_EQ(lib.write_backs(), 1u);
}

// ---- ObjectSpace (stack, §2.4) -------------------------------------------------

TEST(ObjectSpace, InsertPushesDown) {
  ObjectSpace s(4);
  s.insert_top(10);
  s.insert_top(11);
  s.insert_top(12);
  EXPECT_EQ(s.position_of(12), 0);
  EXPECT_EQ(s.position_of(11), 1);
  EXPECT_EQ(s.position_of(10), 2);
  EXPECT_EQ(s.bottom(), 10u);
}

TEST(ObjectSpace, LruEviction) {
  ObjectSpace s(2);
  s.insert_top(1);
  s.insert_top(2);
  EXPECT_TRUE(s.full());
  EXPECT_EQ(s.evict_bottom(), 1u);  // least recently placed
  EXPECT_FALSE(s.contains(1));
}

TEST(ObjectSpace, PromoteResortsStack) {
  ObjectSpace s(4);
  s.insert_top(1);
  s.insert_top(2);
  s.insert_top(3);
  EXPECT_EQ(s.promote(1), 2);  // was at depth 2
  EXPECT_EQ(s.position_of(1), 0);
  EXPECT_EQ(s.position_of(3), 1);
  EXPECT_EQ(s.position_of(2), 2);
  EXPECT_EQ(s.promote(1), 0);  // already top: no shift
}

TEST(ObjectSpace, RemoveClosesGap) {
  ObjectSpace s(4);
  s.insert_top(1);
  s.insert_top(2);
  s.insert_top(3);
  s.remove(2);
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s.position_of(3), 0);
  EXPECT_EQ(s.position_of(1), 1);
}

TEST(ObjectSpace, PreconditionErrors) {
  ObjectSpace s(2);
  EXPECT_THROW(s.bottom(), vlsip::PreconditionError);
  EXPECT_THROW(s.evict_bottom(), vlsip::PreconditionError);
  s.insert_top(1);
  EXPECT_THROW(s.insert_top(1), vlsip::PreconditionError);
  EXPECT_THROW(s.position_of(9), vlsip::PreconditionError);
  s.insert_top(2);
  EXPECT_THROW(s.insert_top(3), vlsip::PreconditionError);  // full
}

TEST(ObjectSpace, StackDistanceEqualsPosition) {
  // The physical order IS the recency order — the §2.4 property.
  ObjectSpace s(8);
  for (arch::ObjectId id = 0; id < 8; ++id) s.insert_top(id);
  s.promote(3);
  s.promote(5);
  // Most recent first: 5, 3, 7, 6, 4, 2, 1, 0.
  EXPECT_EQ(s.stack(),
            (std::vector<arch::ObjectId>{5, 3, 7, 6, 4, 2, 1, 0}));
}

TEST(ObjectSpace, MatchesNaiveStackModel) {
  // The flat id index against a plain vector (top first) over random
  // stack operations, ids drawn sparse so the index keeps growing.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    int capacity = 2 + static_cast<int>(rng.uniform(14));
    ObjectSpace s(capacity);
    std::vector<arch::ObjectId> model;
    const auto depth = [&](arch::ObjectId id) {
      return static_cast<int>(std::find(model.begin(), model.end(), id) -
                              model.begin());
    };
    for (int step = 0; step < 400; ++step) {
      const auto action = rng.uniform(20);
      const auto id = static_cast<arch::ObjectId>(rng.uniform(48));
      const bool resident = depth(id) < static_cast<int>(model.size());
      if (action < 8) {
        if (!resident && static_cast<int>(model.size()) < capacity) {
          s.insert_top(id);
          model.insert(model.begin(), id);
        }
      } else if (action < 14) {
        if (resident) {
          EXPECT_EQ(s.promote(id), depth(id));
          model.erase(model.begin() + depth(id));
          model.insert(model.begin(), id);
        }
      } else if (action < 17) {
        if (!model.empty()) {
          EXPECT_EQ(s.evict_bottom(), model.back());
          model.pop_back();
        }
      } else if (action < 19) {
        if (resident) {
          s.remove(id);
          model.erase(model.begin() + depth(id));
        }
      } else if (capacity > 1) {
        const bool was_full = static_cast<int>(model.size()) == capacity;
        const auto evicted = s.reduce_capacity();
        --capacity;
        EXPECT_EQ(evicted.has_value(), was_full);
        if (was_full) {
          EXPECT_EQ(*evicted, model.back());
          model.pop_back();
        }
      }
      ASSERT_EQ(s.stack(), model) << "seed " << seed << " step " << step;
      ASSERT_EQ(s.capacity(), capacity);
      for (int i = 0; i < s.size(); ++i) ASSERT_EQ(s.at(i), model[i]);
      for (arch::ObjectId probe = 0; probe < 64; ++probe) {
        const int d = depth(probe);
        ASSERT_EQ(s.find(probe).value_or(-1),
                  d < static_cast<int>(model.size()) ? d : -1);
      }
      ASSERT_FALSE(s.contains(arch::kNoObject));
    }
  }
}

snapshot::Snapshot object_space_section(int capacity,
                                        std::vector<arch::ObjectId> stack) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("ap.object_space");
  w.i32(capacity);
  w.vec_u32(stack);
  w.u64(0);
  return snap;
}

TEST(ObjectSpace, RestoreRejectsInconsistentStacks) {
  ObjectSpace s(4);
  s.insert_top(2);
  const auto restore = [&](const snapshot::Snapshot& snap) {
    snapshot::Reader r(snap);
    s.restore(r);
  };
  EXPECT_THROW(restore(object_space_section(4, {1, 2, 1})),
               snapshot::SnapshotError);
  EXPECT_THROW(restore(object_space_section(4, {1, arch::kObjectIdLimit})),
               snapshot::SnapshotError);
  EXPECT_THROW(restore(object_space_section(2, {1, 2, 3})),
               snapshot::SnapshotError);
  EXPECT_THROW(restore(object_space_section(0, {})), snapshot::SnapshotError);
  // The rejected restores left the stack alone; a consistent one lands.
  EXPECT_EQ(s.stack(), std::vector<arch::ObjectId>{2});
  restore(object_space_section(3, {7, 0}));
  EXPECT_EQ(s.find(7).value_or(-1), 0);
  EXPECT_EQ(s.find(0).value_or(-1), 1);
  EXPECT_FALSE(s.contains(2));
  EXPECT_THROW(s.insert_top(arch::kObjectIdLimit), vlsip::PreconditionError);
}

// ---- WSRF ------------------------------------------------------------------------

TEST(Wsrf, InsertAndLookup) {
  Wsrf w(4);
  EXPECT_TRUE(w.insert(7));
  ASSERT_TRUE(w.contains(7));
  EXPECT_FALSE(w.contains(9));
}

TEST(Wsrf, RetiresOldestInactive) {
  Wsrf w(2);
  w.insert(1);
  w.insert(2);
  w.insert(3);  // retires 1
  EXPECT_FALSE(w.contains(1));
  EXPECT_TRUE(w.contains(2));
  EXPECT_EQ(w.retirements(), 1u);
}

TEST(Wsrf, ActiveEntriesArePinned) {
  Wsrf w(2);
  w.insert(1);
  w.set_active(1, true);
  w.insert(2);
  w.set_active(2, true);
  EXPECT_FALSE(w.insert(3));  // all pinned
  w.set_active(1, false);
  EXPECT_TRUE(w.insert(3));   // retires 1
  EXPECT_FALSE(w.contains(1));
}

TEST(Wsrf, RefreshMovesToYoungest) {
  Wsrf w(2);
  w.insert(1);
  w.insert(2);
  w.insert(1);  // refresh: 1 becomes youngest
  w.insert(3);  // retires 2, not 1
  EXPECT_TRUE(w.contains(1));
  EXPECT_FALSE(w.contains(2));
}

TEST(Wsrf, EraseAndClear) {
  Wsrf w;
  w.insert(1);
  w.insert(2);
  w.erase(1);
  EXPECT_FALSE(w.contains(1));
  w.erase(99);  // erasing absent id is a no-op
  w.clear();
  EXPECT_EQ(w.size(), 0);
}

TEST(Wsrf, MatchesNaiveModel) {
  // The shared LRU stack plus pin bitmap against a plain oldest-first
  // vector over random insert/set_active/erase/clear. Capacities are
  // small and most pins stick, so the full and all-pinned cases recur.
  struct Tag {
    arch::ObjectId id;
    bool active;
  };
  const auto saved = [](const Wsrf& w) {
    snapshot::Snapshot snap;
    snapshot::Writer out(snap);
    w.save(out);
    return snap;
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    const int capacity = 1 + static_cast<int>(rng.uniform(4));
    Wsrf w(capacity);
    std::vector<Tag> model;  // front = oldest
    std::size_t retirements = 0;
    bool saw_full = false;
    bool saw_all_pinned = false;
    const auto find = [&](arch::ObjectId id) {
      return std::find_if(model.begin(), model.end(),
                          [id](const Tag& t) { return t.id == id; });
    };
    for (int step = 0; step < 400; ++step) {
      const auto action = rng.uniform(40);
      const auto id = static_cast<arch::ObjectId>(
          rng.uniform(static_cast<std::uint64_t>(capacity) + 3));
      const auto it = find(id);
      if (action < 20) {
        bool inserted = true;
        if (it != model.end()) {
          const Tag refreshed = *it;
          model.erase(it);
          model.push_back(refreshed);
        } else {
          if (static_cast<int>(model.size()) == capacity) {
            saw_full = true;
            const auto victim =
                std::find_if(model.begin(), model.end(),
                             [](const Tag& t) { return !t.active; });
            if (victim == model.end()) {
              inserted = false;
              saw_all_pinned = true;
            } else {
              model.erase(victim);
              ++retirements;
            }
          }
          if (inserted) model.push_back(Tag{id, false});
        }
        ASSERT_EQ(w.insert(id), inserted)
            << "seed " << seed << " step " << step;
      } else if (action < 32) {
        // Mostly pin a present entry, so whole-WSRF pinning comes up.
        const bool pin = rng.uniform(4) != 0;
        if (!model.empty() && rng.uniform(4) != 0) {
          Tag& t = model[rng.uniform(model.size())];
          w.set_active(t.id, pin);
          t.active = pin;
        } else if (it != model.end()) {
          w.set_active(id, pin);
          it->active = pin;
        } else {
          EXPECT_THROW(w.set_active(id, pin), vlsip::PreconditionError);
        }
      } else if (action < 39) {
        w.erase(id);
        if (it != model.end()) model.erase(it);
      } else {
        w.clear();
        model.clear();
      }
      ASSERT_EQ(w.size(), static_cast<int>(model.size()));
      ASSERT_EQ(w.retirements(), retirements);
      for (arch::ObjectId probe = 0; probe < 12; ++probe) {
        const auto m = find(probe);
        ASSERT_EQ(w.contains(probe), m != model.end())
            << "seed " << seed << " step " << step << " id " << probe;
        ASSERT_EQ(w.active(probe), m != model.end() && m->active);
      }
      // The ap.wsrf bytes: the model's entries (id, pinned) oldest
      // first; a restored twin saves the same bytes.
      snapshot::Snapshot expected;
      snapshot::Writer out(expected);
      out.section("ap.wsrf");
      out.i32(capacity);
      out.u64(model.size());
      for (const Tag& t : model) {
        out.u32(t.id);
        out.b(t.active);
      }
      out.u64(retirements);
      const snapshot::Snapshot bytes = saved(w);
      ASSERT_EQ(bytes.bytes(), expected.bytes());
      Wsrf twin(capacity);
      snapshot::Reader in(bytes);
      twin.restore(in);
      ASSERT_EQ(saved(twin).bytes(), bytes.bytes());
    }
    EXPECT_TRUE(saw_full) << "seed " << seed;
    EXPECT_TRUE(saw_all_pinned) << "seed " << seed;
  }
}

// ---- End-to-end: configure + execute small programs ---------------------------------

ApConfig small_config(int capacity = 16) {
  ApConfig c;
  c.capacity = capacity;
  c.memory_blocks = 4;
  return c;
}

TEST(Ap, LinearPipelineComputes) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(4);
  const auto cfg = ap.configure(p);
  EXPECT_EQ(cfg.elements, p.stream.size());
  EXPECT_GT(cfg.cycles, 0u);
  ap.feed("in", arch::make_word_i(5));
  const auto exec = ap.run(1, 10000);
  ASSERT_TRUE(exec.completed);
  // ((5+1)*2+3)*2 = 30
  ASSERT_EQ(ap.output("out").size(), 1u);
  EXPECT_EQ(ap.output("out")[0].i, 30);
}

TEST(Ap, StreamOfTokens) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(2);
  ap.configure(p);
  for (int v : {1, 2, 3, 4}) ap.feed("in", arch::make_word_i(v));
  const auto exec = ap.run(4, 20000);
  ASSERT_TRUE(exec.completed);
  const auto& out = ap.output("out");
  ASSERT_EQ(out.size(), 4u);
  // (v+1)*2 for each v.
  EXPECT_EQ(out[0].i, 4);
  EXPECT_EQ(out[1].i, 6);
  EXPECT_EQ(out[2].i, 8);
  EXPECT_EQ(out[3].i, 10);
}

TEST(Ap, ConditionalExampleBothArms) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::conditional_example_program();
  ap.configure(p);
  // x > y -> z = x + 1.
  ap.feed("x", arch::make_word_i(10));
  ap.feed("y", arch::make_word_i(3));
  // x <= y -> z = y + 2.
  ap.feed("x", arch::make_word_i(1));
  ap.feed("y", arch::make_word_i(7));
  const auto exec = ap.run(2, 20000);
  ASSERT_TRUE(exec.completed);
  const auto& z = ap.output("z");
  ASSERT_EQ(z.size(), 2u);
  EXPECT_EQ(z[0].i, 11);
  EXPECT_EQ(z[1].i, 9);
}

TEST(Ap, FirFilterStreaming) {
  ApConfig c = small_config(32);
  AdaptiveProcessor ap(c);
  const auto p = arch::fir_program({0.5, 0.5});  // 2-tap moving average
  ASSERT_TRUE(ap.fits_streaming(p));
  ap.configure(p);
  for (double v : {2.0, 4.0, 6.0, 8.0}) ap.feed("x", arch::make_word_f(v));
  const auto exec = ap.run_streaming(4, 40000);
  ASSERT_TRUE(exec.completed);
  const auto& y = ap.output("y");
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0].f, 1.0);  // (2+0)/2
  EXPECT_DOUBLE_EQ(y[1].f, 3.0);  // (4+2)/2
  EXPECT_DOUBLE_EQ(y[2].f, 5.0);
  EXPECT_DOUBLE_EQ(y[3].f, 7.0);
}

TEST(Ap, StreamingRejectsOversizedDatapath) {
  AdaptiveProcessor ap(small_config(4));
  const auto p = arch::linear_pipeline_program(4);  // 10 objects > 4
  EXPECT_FALSE(ap.fits_streaming(p));
  ap.configure(p);
  EXPECT_THROW(ap.run_streaming(1, 1000), vlsip::PreconditionError);
}

TEST(Ap, VirtualHardwareRunsOversizedScalar) {
  // Datapath larger than C: scalar execution must still complete via
  // object faults and LRU replacement (§2.5).
  AdaptiveProcessor ap(small_config(6));
  const auto p = arch::linear_pipeline_program(4);  // 10 objects
  ap.configure(p);
  ap.feed("in", arch::make_word_i(5));
  const auto exec = ap.run(1, 100000);
  ASSERT_TRUE(exec.completed) << "deadlocked=" << exec.deadlocked;
  EXPECT_EQ(ap.output("out")[0].i, 30);
  EXPECT_GT(exec.faults, 0u);
  EXPECT_GT(ap.stats().faults.evictions, 0u);
}

TEST(Ap, ConfigureMissesThenHits) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(2);
  const auto first = ap.configure(p);
  EXPECT_EQ(first.hits + first.misses, first.object_requests);
  EXPECT_GT(first.misses, 0u);  // cold
  ap.release_datapath();
  const auto second = ap.configure(p);
  // Objects stayed cached in the object space: all hits now (§2.4).
  EXPECT_EQ(second.misses, 0u);
  EXPECT_GT(second.hits, 0u);
  EXPECT_LT(second.cycles, first.cycles);
}

TEST(Ap, MemoryLoadStore) {
  AdaptiveProcessor ap(small_config());
  // store(addr=4, x); y = load(4) gated after store? Simpler: two
  // independent datapaths — write then read.
  DatapathBuilder bw;
  const auto addr = bw.constant_i(4, "addr");
  const auto val = bw.input("v");
  bw.op(Opcode::kStore, addr, val, "st");
  // Store produces nothing; use the value pass-through as output to
  // detect completion.
  bw.output("done", val);
  auto wp = std::move(bw).build();
  ap.configure(wp);
  ap.feed("v", arch::make_word_i(77));
  ASSERT_TRUE(ap.run(1, 10000).completed);
  EXPECT_EQ(ap.memory().read(4).i, 77);

  ap.release_datapath();
  DatapathBuilder br;
  const auto addr2 = br.constant_i(4, "addr2");
  const auto ld = br.op(Opcode::kLoad, addr2, "ld");
  br.output("r", ld);
  auto rp = std::move(br).build();
  ap.configure(rp);
  const auto exec = ap.run(1, 10000);
  ASSERT_TRUE(exec.completed);
  EXPECT_EQ(ap.output("r")[0].i, 77);
  EXPECT_GT(exec.mem_ops, 0u);
}

TEST(Ap, ReleaseFiresTokensAndKeepsCache) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(2);
  ap.configure(p);
  const auto resident_before = ap.object_space().size();
  ap.release_datapath();
  EXPECT_FALSE(ap.has_datapath());
  EXPECT_GT(ap.stats().release_tokens, 0u);
  EXPECT_EQ(ap.object_space().size(), resident_before);  // cache kept
  EXPECT_EQ(ap.network().active_routes(), 0u);           // chains gone
}

TEST(Ap, OpMixCounted) {
  AdaptiveProcessor ap(small_config());
  DatapathBuilder b;
  const auto x = b.input("x");
  const auto f = b.op(Opcode::kFMul, b.constant_f(2.0), b.constant_f(3.0));
  const auto i = b.op(Opcode::kIAdd, x, b.constant_i(1));
  b.output("fo", f);
  b.output("io", i);
  auto p = std::move(b).build();
  ap.configure(p);
  ap.feed("x", arch::make_word_i(0));
  const auto exec = ap.run(1, 10000);
  ASSERT_TRUE(exec.completed);
  EXPECT_GT(exec.float_ops, 0u);
  EXPECT_GT(exec.int_ops, 0u);
  EXPECT_GT(exec.transport_ops, 0u);
}

TEST(Ap, DivideByZeroIsZero) {
  AdaptiveProcessor ap(small_config());
  DatapathBuilder b;
  const auto x = b.input("x");
  const auto q = b.op(Opcode::kIDiv, x, b.constant_i(0));
  b.output("q", q);
  auto p = std::move(b).build();
  ap.configure(p);
  ap.feed("x", arch::make_word_i(100));
  ASSERT_TRUE(ap.run(1, 10000).completed);
  EXPECT_EQ(ap.output("q")[0].i, 0);
}

TEST(Ap, HandshakeCyclesCharged) {
  AdaptiveProcessor ap(small_config());
  const auto cfg = ap.configure(arch::linear_pipeline_program(3));
  EXPECT_GT(cfg.acquire_handshake_cycles, 0u);
}

TEST(Ap, ConfigValidation) {
  ApConfig bad;
  bad.capacity = 1;
  EXPECT_THROW(AdaptiveProcessor{bad}, vlsip::PreconditionError);
  AdaptiveProcessor ap(small_config());
  EXPECT_THROW(ap.feed("x", arch::make_word_u(0)),
               vlsip::PreconditionError);  // nothing configured
  EXPECT_THROW(ap.run(1, 100), vlsip::PreconditionError);
  arch::Program empty;
  EXPECT_THROW(ap.configure(empty), vlsip::PreconditionError);
}

TEST(Ap, UnknownPortsThrow) {
  AdaptiveProcessor ap(small_config());
  ap.configure(arch::linear_pipeline_program(1));
  EXPECT_THROW(ap.feed("nope", arch::make_word_u(0)),
               vlsip::PreconditionError);
  EXPECT_THROW(ap.output("nope"), vlsip::PreconditionError);
}

TEST(Ap, DeadlockDetected) {
  // A datapath needing two operands but fed only one never completes;
  // the executor must report a deadlock instead of spinning forever.
  AdaptiveProcessor ap(small_config());
  DatapathBuilder b;
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.output("s", b.op(Opcode::kIAdd, x, y));
  auto p = std::move(b).build();
  ExecConfig ec;
  ec.deadlock_window = 100;
  ApConfig c = small_config();
  c.exec = ec;
  AdaptiveProcessor ap2(c);
  ap2.configure(p);
  ap2.feed("x", arch::make_word_i(1));  // y never fed
  const auto exec = ap2.run(1, 100000);
  EXPECT_FALSE(exec.completed);
  EXPECT_TRUE(exec.deadlocked);
  (void)ap;
}

}  // namespace
}  // namespace vlsip::ap
