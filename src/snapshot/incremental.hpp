// Incremental compressed checkpoints: version-2 delta containers.
//
// A delta container encodes one flat snapshot ("next") against another
// flat snapshot ("base", usually the previous checkpoint). The unit of
// diffing is the tagged section: every section() boundary recorded by
// Writer::set_section_index re-anchors the diff, so a size change in
// one layer cannot smear mismatches across the rest of the stream.
// Each section is emitted in one of three modes:
//
//   ref      — byte-identical to a base section with the same tag
//              (matched by tag + occurrence); only a base byte range is
//              shipped. This is the dirty-section story: a clean layer
//              costs a handful of varint bytes.
//   delta    — changed, but overlaps its base section: after trimming
//              the common prefix/suffix, the middle ships as aligned
//              copy/literal runs (equal runs >= 16 bytes copy from the
//              base at the same middle offset; the rest is literal), so
//              a large section with scattered interior edits costs only
//              its changed runs.
//   literal  — new or cheaper to ship whole (raw bytes).
//
// All counts, lengths, offsets and ids are varints; base offsets are
// zigzag deltas from the position the previous section made expected,
// so a chain of in-order refs costs one byte each (snapshot/codec.hpp).
//
// Container layout (after the shared VSNP magic):
//
//   u32   kMagic            u32   kVersionContainer (2)
//   u8    kKindDelta        u64   content_hash64(base bytes)
//   u64   content_hash64(materialized bytes)
//   varint materialized size, varint section count, sections...
//
// materialize/apply reconstruct the exact flat bytes and verify both
// hashes — a delta applied to the wrong base, a truncated chain, or a
// flipped bit all fail with Status(kCorruptSnapshot), never a crash and
// never silently wrong bytes (the fuzz wall in tests/test_fuzz_snapshot
// attacks exactly this surface). A flat Reader rejects a container at
// its header: its stamp, kVersionContainer, is not kVersionFlat.
#pragma once

#include <cstdint>
#include <vector>

#include "core/status.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::snapshot {

/// Container kind byte (after magic + version). Only deltas exist
/// today; the byte keeps room for future self-contained compressed
/// kinds without another version bump.
inline constexpr std::uint8_t kKindDelta = 1;

/// True when `snap` carries a version-2 delta container header. False
/// for flat snapshots, empty buffers and garbage — never throws, so
/// restore paths can branch on it before attaching a Reader.
bool is_delta(const Snapshot& snap);

/// Encodes `next` as a delta container against `base`. `base_index`
/// and `next_index` must be the section indexes recorded while the
/// respective flat snapshots were written. Pure function of its
/// inputs; never fails (a hostile *decoder* input is the fuzzed
/// surface, the encoder only sees bytes this process produced).
Snapshot encode_delta(const Snapshot& base, const SectionIndex& base_index,
                      const Snapshot& next, const SectionIndex& next_index);

/// Applies one delta container to its base, reconstructing the flat
/// snapshot byte-for-byte. Typed failures (kCorruptSnapshot): wrong
/// magic/version/kind, base-hash mismatch (delta referencing a missing
/// or different base), out-of-range base references, section-tag
/// mismatches, truncation anywhere, trailing container bytes, or a
/// materialized buffer failing its checksum.
StatusOr<Snapshot> apply_delta(const Snapshot& base, const Snapshot& delta);

/// Materializes a checkpoint chain: chain[0] must be a flat snapshot
/// (the keyframe), chain[1..] delta containers applied in order.
/// Returns the final flat snapshot — byte-identical to the full
/// snapshot the producer would have written at the same point (the
/// 100-seed sweeps in test_properties pin this). kInvalidArgument on
/// an empty chain or a keyframe that is itself a delta;
/// kCorruptSnapshot when any link fails to apply.
StatusOr<Snapshot> materialize_chain(const std::vector<Snapshot>& chain);

}  // namespace vlsip::snapshot
