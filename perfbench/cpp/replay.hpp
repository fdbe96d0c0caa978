// The traced run: the workload's serve loop replayed on the benchmark's
// own thread through public calls, with a span around each call.
//
//   workload.build        workload::load_pack + JobStreamBuilder::build
//   core.chip             VlsiProcessor construction
//   runtime.admit         staging jobs into the batcher's queue
//   runtime.take_batch    runtime::take_batch (the farm's batcher)
//   runtime.hold          sleeping until the next job is due (open loop)
//   scaling.fuse          VlsiProcessor::fuse, once per batch
//   ap.configure          AdaptiveProcessor::configure, once per job
//   ap.run                feed + activate + run + deactivate + outputs
//   scaling.release       VlsiProcessor::release, once per batch
//   runtime.publish       VlsiProcessor::export_obs, once per batch (the
//                         farm republishes its probes after each batch)
//   snapshot.checkpoint   VlsiProcessor::save_profiled + encode_delta
//   net.encode, net.decode  each job's SubmitJob / AssignJob / JobResult
//                         messages through net::encode / decode_payload
//
// Spans never nest, so their durations plus the uncovered remainder add
// up to the replay's wall time exactly.
//
// Batches are formed the way the farms form them, by runtime::take_batch
// over the queue the farm would hold: the local and open-loop farms
// stage the whole stream up front, so their replays do too; the hub
// replay stages the worker daemon's windows of up to eight assignments.
// The local replay serves on one chip in the farm's order, so its
// simulated totals equal the farm's exactly. The open-loop replay plays
// the farm's two workers on one thread, each holding its batch until
// the next job is due; it and the hub replay match their farms only
// approximately (reported as trace.sim_cycles_delta_frac).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "drive.hpp"

namespace perfbench {

enum SpanId : std::size_t {
  kSpanBuild,
  kSpanChip,
  kSpanAdmit,
  kSpanTakeBatch,
  kSpanHold,
  kSpanFuse,
  kSpanConfigure,
  kSpanRun,
  kSpanRelease,
  kSpanPublish,
  kSpanCheckpoint,
  kSpanEncode,
  kSpanDecode,
  kSpanCount,
};

const char* span_name(std::size_t id);

struct SpanTotals {
  double us = 0;
  std::uint64_t calls = 0;

  double mean_us() const {
    return calls == 0 ? 0.0 : us / static_cast<double>(calls);
  }
};

struct TraceResult {
  double wall_us = 0;
  std::array<SpanTotals, kSpanCount> spans{};
  std::size_t jobs = 0;
  std::size_t completed = 0;
  FailureTally tally;
  std::uint64_t config_cycles = 0;
  std::uint64_t exec_cycles = 0;
  /// Encoded frame bytes of every job's messages (hub replay only).
  std::uint64_t wire_bytes = 0;
  /// The replay chip's layer counters at the end (same keys as
  /// RepResult::counters where both exist).
  std::map<std::string, double> counters;

  /// Wall time outside the set-up spans (stream build, chip).
  double serve_us() const {
    return wall_us - spans[kSpanBuild].us - spans[kSpanChip].us;
  }
  double covered_us() const {
    double total = 0;
    for (const auto& s : spans) total += s.us;
    return total;
  }
};

TraceResult replay(const WorkloadDef& def, std::uint64_t seed,
                   const Reference& reference);

/// A replay's result across the pipe from its child process.
void write(PipeOut& out, const TraceResult& t);
void read(PipeIn& in, TraceResult& t);

}  // namespace perfbench
