#include "snapshot/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <unordered_map>

#include "snapshot/codec.hpp"

namespace vlsip::snapshot {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // magic + version

/// Section modes on the wire.
enum Mode : std::uint64_t { kRef = 0, kDelta = 1, kLiteral = 2 };

/// One diffable chunk of a flat snapshot: [begin, end) bytes, tagged
/// with the section tag that opens it ("" for the leading header
/// chunk before the first section).
struct Chunk {
  std::string tag;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

std::vector<Chunk> chunks_of(const Snapshot& flat,
                             const SectionIndex& index) {
  std::vector<Chunk> chunks;
  chunks.reserve(index.entries.size() + 1);
  std::size_t begin = 0;
  std::string tag;  // "" = the header bytes before the first section
  for (const auto& entry : index.entries) {
    if (entry.offset != begin) chunks.push_back({tag, begin, entry.offset});
    begin = entry.offset;
    tag = entry.tag;
  }
  chunks.push_back({tag, begin, flat.size()});
  return chunks;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), b, b + sizeof v);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), b, b + sizeof v);
}

std::uint64_t read_u64(const std::uint8_t* data, std::size_t size,
                       std::size_t& pos) {
  if (size - pos < 8) throw SnapshotError("delta container header truncated");
  std::uint64_t v;
  std::memcpy(&v, data + pos, sizeof v);
  pos += 8;
  return v;
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// First index >= i in [i, n) where a and b agree, or n. Scans 8-byte
/// lanes, spotting an equal byte pair as a zero byte in the lanes' xor
/// (the classic has-zero-byte bit trick; the lowest flagged byte is
/// exact). The encoder walks whole dirty sections through these scans
/// every checkpoint, so they sit on the checkpoint_micros hot path.
std::size_t next_equal(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t i, std::size_t n) {
  while (i + 8 <= n) {
    std::uint64_t x, y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    const std::uint64_t v = x ^ y;
    const std::uint64_t z =
        (v - 0x0101010101010101ull) & ~v & 0x8080808080808080ull;
    if (z) return i + (static_cast<std::size_t>(std::countr_zero(z)) >> 3);
    i += 8;
  }
  while (i < n && a[i] != b[i]) ++i;
  return i;
}

/// First index >= i in [i, n) where a and b differ, or n. Lane-wise;
/// the first differing byte of an unequal lane is the lowest set bit
/// of the xor (little-endian: lower addresses are lower-order bits).
std::size_t extend_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t i, std::size_t n) {
  while (i + 8 <= n) {
    std::uint64_t x, y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    if (x != y) {
      return i + (static_cast<std::size_t>(std::countr_zero(x ^ y)) >> 3);
    }
    i += 8;
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

std::size_t common_prefix(const std::uint8_t* a, std::size_t an,
                          const std::uint8_t* b, std::size_t bn) {
  return extend_equal(a, b, 0, std::min(an, bn));
}

std::size_t common_suffix(const std::uint8_t* a, std::size_t an,
                          const std::uint8_t* b, std::size_t bn,
                          std::size_t max_len) {
  const std::size_t n = std::min({an, bn, max_len});
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::uint64_t x, y;
    std::memcpy(&x, a + an - 8 - i, 8);
    std::memcpy(&y, b + bn - 8 - i, 8);
    if (x != y) {
      // The last differing byte in memory is the lane's most
      // significant differing bit.
      return i + (static_cast<std::size_t>(std::countl_zero(x ^ y)) >> 3);
    }
    i += 8;
  }
  while (i < n && a[an - 1 - i] == b[bn - 1 - i]) ++i;
  return i;
}

/// Minimum aligned equal run worth a copy op (below this the op
/// framing costs more than the literal bytes it saves).
constexpr std::size_t kMinCopyRun = 16;

/// Encodes the trimmed middle of a changed section as aligned
/// copy/literal runs against the base middle: ops of
/// varint((len << 1) | is_literal), literal bytes inline. Appends
/// varint(next_mid) + varint(n_ops) + ops to `out`; the decoder
/// replays them with a shared middle cursor.
void put_middle_runs(std::vector<std::uint8_t>& out, const std::uint8_t* bm,
                     std::size_t bm_len, const std::uint8_t* nm,
                     std::size_t nm_len) {
  std::vector<std::uint8_t> ops;
  ops.reserve(64);
  std::uint64_t n_ops = 0;
  std::size_t lit_start = 0;
  const auto flush_literal = [&](std::size_t end) {
    if (end == lit_start) return;
    put_varint(ops, ((end - lit_start) << 1) | 1u);
    ops.insert(ops.end(), nm + lit_start, nm + end);
    lit_start = end;
    ++n_ops;
  };
  const std::size_t n_common = std::min(bm_len, nm_len);
  std::size_t i = 0;
  while (i < n_common) {
    if (bm[i] != nm[i]) {
      i = next_equal(bm, nm, i + 1, n_common);
      continue;
    }
    const std::size_t j = extend_equal(bm, nm, i + 1, n_common);
    if (j - i >= kMinCopyRun) {
      flush_literal(i);
      put_varint(ops, (j - i) << 1);  // copy op
      lit_start = j;
      ++n_ops;
    }
    i = j;
  }
  flush_literal(nm_len);  // trailing mismatches + any tail past base
  put_varint(out, nm_len);
  put_varint(out, n_ops);
  out.insert(out.end(), ops.begin(), ops.end());
}

}  // namespace

bool is_delta(const Snapshot& snap) {
  const auto& b = snap.bytes();
  if (b.size() < kHeaderBytes + 1) return false;
  std::uint32_t magic, version;
  std::memcpy(&magic, b.data(), 4);
  std::memcpy(&version, b.data() + 4, 4);
  return magic == kMagic && version == kVersionContainer &&
         b[kHeaderBytes] == kKindDelta;
}

Snapshot encode_delta(const Snapshot& base, const SectionIndex& base_index,
                      const Snapshot& next, const SectionIndex& next_index) {
  const auto base_chunks = chunks_of(base, base_index);
  const auto next_chunks = chunks_of(next, next_index);

  // Occurrence matching: the k-th "ap.executor" in next pairs with the
  // k-th in base. A cursor per tag walks base's occurrence list.
  std::unordered_map<std::string, std::vector<std::size_t>> base_by_tag;
  for (std::size_t i = 0; i < base_chunks.size(); ++i) {
    base_by_tag[base_chunks[i].tag].push_back(i);
  }
  std::unordered_map<std::string, std::size_t> cursor;

  Snapshot out;
  auto& bytes = out.bytes();
  put_u32(bytes, kMagic);
  put_u32(bytes, kVersionContainer);
  bytes.push_back(kKindDelta);
  put_u64(bytes, content_hash64(base.bytes().data(), base.bytes().size()));
  put_u64(bytes, content_hash64(next.bytes().data(), next.bytes().size()));
  put_varint(bytes, next.size());
  put_varint(bytes, next_chunks.size());

  // Base offsets ship as zigzag deltas from where the previous match
  // ended — consecutive in-order refs cost one byte each.
  std::size_t expected_base_off = 0;
  for (const auto& nc : next_chunks) {
    const std::uint8_t* np = next.bytes().data() + nc.begin;
    const std::size_t nn = nc.size();

    const Chunk* bc = nullptr;
    auto it = base_by_tag.find(nc.tag);
    if (it != base_by_tag.end()) {
      std::size_t& k = cursor[nc.tag];
      if (k < it->second.size()) bc = &base_chunks[it->second[k++]];
    }

    put_str(bytes, nc.tag);
    if (bc == nullptr) {
      put_varint(bytes, kLiteral);
      put_varint(bytes, nn);
      bytes.insert(bytes.end(), np, np + nn);
      continue;
    }
    const std::uint8_t* bp = base.bytes().data() + bc->begin;
    const std::size_t bn = bc->size();
    if (nn == bn && std::memcmp(np, bp, nn) == 0) {
      put_varint(bytes, kRef);
      put_svarint(bytes, static_cast<std::int64_t>(bc->begin) -
                             static_cast<std::int64_t>(expected_base_off));
      put_varint(bytes, bn);
      expected_base_off = bc->end;
      continue;
    }
    const std::size_t prefix = common_prefix(bp, bn, np, nn);
    const std::size_t suffix =
        common_suffix(bp, bn, np, nn, std::min(bn, nn) - prefix);
    // Encode the trimmed middle as copy/literal runs into a scratch
    // buffer first, then ship whichever of delta/literal is smaller.
    std::vector<std::uint8_t> middle;
    put_middle_runs(middle, bp + prefix, bn - prefix - suffix, np + prefix,
                    nn - prefix - suffix);
    if (middle.size() + 16 < nn) {
      put_varint(bytes, kDelta);
      put_svarint(bytes, static_cast<std::int64_t>(bc->begin) -
                             static_cast<std::int64_t>(expected_base_off));
      put_varint(bytes, bn);
      put_varint(bytes, prefix);
      put_varint(bytes, suffix);
      bytes.insert(bytes.end(), middle.begin(), middle.end());
      expected_base_off = bc->end;
    } else {
      put_varint(bytes, kLiteral);
      put_varint(bytes, nn);
      bytes.insert(bytes.end(), np, np + nn);
    }
  }
  return out;
}

StatusOr<Snapshot> apply_delta(const Snapshot& base, const Snapshot& delta) {
  try {
    const std::uint8_t* d = delta.bytes().data();
    const std::size_t dn = delta.bytes().size();
    std::size_t pos = 0;

    if (dn < kHeaderBytes + 1) {
      throw SnapshotError("delta container truncated: no header");
    }
    std::uint32_t magic, version;
    std::memcpy(&magic, d, 4);
    std::memcpy(&version, d + 4, 4);
    if (magic != kMagic) {
      throw SnapshotError("delta container has wrong magic");
    }
    if (version != kVersionContainer) {
      throw SnapshotError("delta container version " +
                          std::to_string(version) + " is not supported (" +
                          std::to_string(kVersionContainer) + " expected)");
    }
    pos = kHeaderBytes;
    if (d[pos++] != kKindDelta) {
      throw SnapshotError("unknown container kind byte");
    }
    const std::uint64_t base_hash = read_u64(d, dn, pos);
    const std::uint64_t out_hash = read_u64(d, dn, pos);
    if (base_hash !=
        content_hash64(base.bytes().data(), base.bytes().size())) {
      throw SnapshotError(
          "delta references a different base snapshot (base hash mismatch)");
    }
    const std::uint64_t out_size = get_varint(d, dn, pos);
    // Every materialized byte comes from the base or from literal bytes
    // inside the container, so anything larger is corrupt — this bounds
    // the allocation before it happens.
    if (out_size > base.bytes().size() + dn) {
      throw SnapshotError("delta output size exceeds base + container");
    }
    const std::uint64_t n_chunks = get_varint(d, dn, pos);
    if (n_chunks > dn - pos + 1) {
      throw SnapshotError("delta section count exceeds container payload");
    }

    Snapshot out;
    auto& ob = out.bytes();
    ob.reserve(static_cast<std::size_t>(out_size));
    const std::uint8_t* bp = base.bytes().data();
    const std::size_t bn = base.bytes().size();
    std::size_t expected_base_off = 0;

    // Resolves and validates a base range: in bounds, and (for tagged
    // sections) actually starting with this chunk's tag encoding — a
    // ref that lands on the wrong section fails here, typed.
    const auto base_range = [&](std::int64_t off_delta, std::uint64_t len,
                                const std::string& tag) -> const std::uint8_t* {
      const std::int64_t off =
          static_cast<std::int64_t>(expected_base_off) + off_delta;
      if (off < 0 || len > bn ||
          static_cast<std::uint64_t>(off) > bn - len) {
        throw SnapshotError("delta base reference out of range");
      }
      const std::uint8_t* p = bp + off;
      if (!tag.empty()) {
        std::uint64_t tag_len = 0;
        if (len < 8) throw SnapshotError("delta base section too short");
        std::memcpy(&tag_len, p, 8);
        if (tag_len != tag.size() || len < 8 + tag.size() ||
            std::memcmp(p + 8, tag.data(), tag.size()) != 0) {
          throw SnapshotError(
              "delta section tag mismatch: base bytes do not open section '" +
              tag + "'");
        }
      }
      expected_base_off = static_cast<std::size_t>(off) + len;
      return p;
    };

    for (std::uint64_t c = 0; c < n_chunks; ++c) {
      const std::uint64_t tag_len = get_varint(d, dn, pos);
      if (tag_len > dn - pos) {
        throw SnapshotError("delta section tag truncated");
      }
      std::string tag(reinterpret_cast<const char*>(d + pos),
                      static_cast<std::size_t>(tag_len));
      pos += tag_len;
      const std::uint64_t mode = get_varint(d, dn, pos);
      std::size_t emit = 0;
      switch (mode) {
        case kRef: {
          const std::int64_t off_delta = get_svarint(d, dn, pos);
          const std::uint64_t len = get_varint(d, dn, pos);
          const std::uint8_t* p = base_range(off_delta, len, tag);
          ob.insert(ob.end(), p, p + len);
          emit = static_cast<std::size_t>(len);
          break;
        }
        case kDelta: {
          const std::int64_t off_delta = get_svarint(d, dn, pos);
          const std::uint64_t len = get_varint(d, dn, pos);
          const std::uint64_t prefix = get_varint(d, dn, pos);
          const std::uint64_t suffix = get_varint(d, dn, pos);
          const std::uint64_t next_mid = get_varint(d, dn, pos);
          const std::uint64_t n_ops = get_varint(d, dn, pos);
          if (prefix > len || suffix > len - prefix) {
            throw SnapshotError("delta prefix/suffix exceed base section");
          }
          if (next_mid > out_size || n_ops > dn - pos + 1) {
            throw SnapshotError("delta middle run header out of range");
          }
          const std::uint8_t* p = base_range(off_delta, len, tag);
          const std::uint64_t base_mid = len - prefix - suffix;
          ob.insert(ob.end(), p, p + prefix);
          // Replay the copy/literal runs with a shared middle cursor:
          // copies read the base middle at the cursor (aligned), so
          // every op advances base and output in lock step.
          std::uint64_t m = 0;
          for (std::uint64_t op = 0; op < n_ops; ++op) {
            const std::uint64_t header = get_varint(d, dn, pos);
            const std::uint64_t run = header >> 1;
            if (run == 0 || run > next_mid - m) {
              throw SnapshotError("delta middle run exceeds declared size");
            }
            if (header & 1) {
              if (run > dn - pos) {
                throw SnapshotError("delta literal run truncated");
              }
              ob.insert(ob.end(), d + pos, d + pos + run);
              pos += static_cast<std::size_t>(run);
            } else {
              if (m >= base_mid || run > base_mid - m) {
                throw SnapshotError("delta copy run outside base middle");
              }
              ob.insert(ob.end(), p + prefix + m, p + prefix + m + run);
            }
            m += run;
          }
          if (m != next_mid) {
            throw SnapshotError("delta middle runs do not sum to its size");
          }
          ob.insert(ob.end(), p + len - suffix, p + len);
          emit = static_cast<std::size_t>(prefix + next_mid + suffix);
          break;
        }
        case kLiteral: {
          const std::uint64_t len = get_varint(d, dn, pos);
          if (len > dn - pos) {
            throw SnapshotError("delta literal section truncated");
          }
          ob.insert(ob.end(), d + pos, d + pos + len);
          pos += static_cast<std::size_t>(len);
          emit = static_cast<std::size_t>(len);
          break;
        }
        default:
          throw SnapshotError("unknown delta section mode " +
                              std::to_string(mode));
      }
      if (ob.size() > out_size) {
        throw SnapshotError("delta sections exceed the declared output size");
      }
      (void)emit;
    }
    if (pos != dn) {
      throw SnapshotError(std::to_string(dn - pos) +
                          " trailing bytes after the delta container");
    }
    if (ob.size() != out_size) {
      throw SnapshotError("delta materialized " + std::to_string(ob.size()) +
                          " bytes, container declared " +
                          std::to_string(out_size));
    }
    if (content_hash64(ob.data(), ob.size()) != out_hash) {
      throw SnapshotError("materialized snapshot fails its checksum");
    }
    return out;
  } catch (const SnapshotError& e) {
    return Status(StatusCode::kCorruptSnapshot, e.what());
  }
}

StatusOr<Snapshot> materialize_chain(const std::vector<Snapshot>& chain) {
  if (chain.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "cannot materialize an empty checkpoint chain");
  }
  if (is_delta(chain.front())) {
    return Status(StatusCode::kCorruptSnapshot,
                  "checkpoint chain starts with a delta, not a keyframe");
  }
  Snapshot flat = chain.front();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (!is_delta(chain[i])) {
      return Status(StatusCode::kCorruptSnapshot,
                    "checkpoint chain link " + std::to_string(i) +
                        " is not a delta container");
    }
    auto next = apply_delta(flat, chain[i]);
    if (!next.ok()) {
      return Status(next.status().code(),
                    "chain link " + std::to_string(i) + ": " +
                        next.status().message());
    }
    flat = std::move(*next);
  }
  return flat;
}

}  // namespace vlsip::snapshot
