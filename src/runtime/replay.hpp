// Deterministic replay: re-run a recorded job trace from a checkpoint.
//
// A checkpointed chip is only half a resumable session — the other half
// is the work that was still in flight. ReplayLog records the admitted
// job stream (program, inputs, placement, budgets) plus the index of
// the first job not yet served when the checkpoint was taken; the pair
// (chip snapshot, replay log) is a complete resumable session. Both
// halves serialise through the same snapshot::Writer/Reader codecs, and
// a drained worker ships them side by side in a net::CheckpointMsg so a
// peer picks up exactly where it stopped (daemon/). `vlsipc snapshot`
// and `vlsipc resume` use a different session: a "vlsipc.session"
// section (RunSession in tools/vlsipc.cpp) holding one program on one
// AP, not a ReplayLog.
//
// replay_from() is the driver: restore the checkpoint into a chip, then
// serve jobs [log.next_job ..) sequentially — single-threaded, virtual
// time only, so re-running the same (checkpoint, log) pair yields
// bit-identical outcomes every time. Outcomes carry
// resumed_from_cycle = log.checkpoint_tick so downstream reports can
// tell a resumed run from an uninterrupted one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/vlsi_processor.hpp"
#include "scaling/job.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::runtime {

/// The admitted-job trace of a deterministic run, snapshot-codable.
struct ReplayLog {
  std::vector<scaling::Job> jobs;
  /// Index of the first job in `jobs` not yet served at checkpoint
  /// time; replay starts here.
  std::size_t next_job = 0;
  /// Farm/virtual tick the checkpoint was taken at (stamped onto
  /// replayed outcomes as resumed_from_cycle).
  std::uint64_t checkpoint_tick = 0;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

/// Snapshot codecs for a single job (shared by ReplayLog and tools).
void save_job(snapshot::Writer& w, const scaling::Job& job);
scaling::Job restore_job(snapshot::Reader& r);

/// Snapshot codecs for a JobOutcome — the wire protocol's result
/// payload (net/wire.*). Deterministic: outputs are a std::map, so the
/// encoding order is the sorted port order, and encoding the same
/// outcome twice yields byte-identical bytes (what lets the migration
/// tests compare a peer's replayed outcomes against a local replay
/// byte for byte).
void save_outcome(snapshot::Writer& w, const scaling::JobOutcome& outcome);
scaling::JobOutcome restore_outcome(snapshot::Reader& r);

struct ReplayOptions {
  /// Cycle budget for jobs that don't carry their own.
  std::uint64_t default_max_cycles = 1u << 22;
  /// Compact the chip when an allocation attempt fails fragmented.
  bool compact_on_fragmentation = true;
};

/// Restores `checkpoint` into `chip` (which must be constructed with
/// the geometry the checkpoint was saved from) and serves
/// log.jobs[log.next_job ..] in admission order. Throws
/// snapshot::SnapshotError on a checkpoint the chip cannot restore
/// (corrupt bytes or any geometry mismatch); a job that throws yields a
/// kError outcome and the rest are still served.
std::vector<scaling::JobOutcome> replay_from(
    core::VlsiProcessor& chip, const snapshot::Snapshot& checkpoint,
    const ReplayLog& log, const ReplayOptions& options = {});

}  // namespace vlsip::runtime
