#include "replay.hpp"

#include <chrono>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/vlsi_processor.hpp"
#include "net/wire.hpp"
#include "runtime/admission_queue.hpp"
#include "runtime/batcher.hpp"
#include "snapshot/incremental.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using vlsip::runtime::PendingJob;
using vlsip::scaling::JobOutcome;
using vlsip::scaling::JobStatus;

constexpr const char* kSpanNames[kSpanCount] = {
    "workload.build",  "core.chip",       "runtime.admit",
    "runtime.take_batch", "runtime.hold", "scaling.fuse",
    "ap.configure",    "ap.run",          "scaling.release",
    "runtime.publish", "snapshot.checkpoint", "net.encode",
    "net.decode",
};

/// Matches the farms the drives build: batches of eight grouped by
/// cluster count, the default cycle budget, and (open-durable) a fresh
/// keyframe after sixteen deltas (FarmConfig defaults).
constexpr std::size_t kBatchJobs = 8;
constexpr std::uint64_t kDefaultMaxCycles = 1u << 22;
constexpr std::size_t kKeyframeEvery = 16;
/// The hub replay stages the worker daemon's assignment windows.
constexpr std::size_t kHubWindow = 8;

/// Adds the time from construction to destruction to one span total.
class Span {
 public:
  Span(TraceResult& trace, SpanId id)
      : totals_(trace.spans[id]), start_(Clock::now()) {}
  ~Span() {
    totals_.us +=
        std::chrono::duration<double, std::micro>(Clock::now() - start_)
            .count();
    ++totals_.calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTotals& totals_;
  Clock::time_point start_;
};

/// Frame bytes of `msg` encoded and decoded again, as one hop of the
/// hub path does; returns the decoded copy.
template <typename M>
M wire_hop(const M& msg, TraceResult& trace) {
  std::vector<std::uint8_t> bytes;
  {
    Span span(trace, kSpanEncode);
    bytes = vlsip::net::encode(msg);
  }
  trace.wire_bytes += bytes.size();
  Span span(trace, kSpanDecode);
  auto frame = vlsip::net::decode_frame(bytes.data(), bytes.size());
  if (!frame.ok()) throw std::runtime_error(frame.status().to_string());
  auto decoded = vlsip::net::decode_payload<M>(*frame);
  if (!decoded.ok()) throw std::runtime_error(decoded.status().to_string());
  return std::move(*decoded);
}

/// One farm worker as the replay sees it: its chip, the batch it is
/// serving, and its checkpoint chain.
struct Slot {
  std::unique_ptr<vlsip::core::VlsiProcessor> chip;
  std::vector<PendingJob> batch;
  std::size_t next = 0;
  vlsip::scaling::ProcId proc = vlsip::scaling::kNoProc;
  vlsip::core::SaveProfile profile;
  /// The copies ChipFarm::maybe_checkpoint keeps: the chain's keyframe
  /// and the latest flat snapshot for quarantine restores.
  vlsip::snapshot::Snapshot keyframe;
  vlsip::snapshot::Snapshot last_checkpoint;
  std::size_t deltas = 0;

  bool busy() const { return next < batch.size(); }
};

class Replayer {
 public:
  Replayer(const WorkloadDef& def, std::uint64_t seed, TraceResult& trace)
      : def_(def), seed_(seed), trace_(trace) {}

  /// Replays the workload; the served outcomes are left in outcomes().
  vlsip::workload::JobStream run() {
    const auto t0 = Clock::now();
    vlsip::workload::JobStream stream;
    {
      Span span(trace_, kSpanBuild);
      stream = build_stream(def_, seed_);
    }
    slots_.resize(def_.drive == Drive::kOpen ? kOpenWorkers : 1);
    for (Slot& slot : slots_) {
      Span span(trace_, kSpanChip);
      slot.chip = std::make_unique<vlsip::core::VlsiProcessor>();
    }
    switch (def_.drive) {
      case Drive::kLocal:
        serve_local(stream);
        break;
      case Drive::kOpen:
        serve_open(stream);
        break;
      case Drive::kHub:
        serve_hub(stream);
        break;
    }
    trace_.wall_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();

    vlsip::obs::MetricRegistry registry;
    for (const Slot& slot : slots_) slot.chip->export_obs(registry);
    read_layer_counters(registry, trace_.counters);
    trace_.counters["batches"] = static_cast<double>(batches_);
    return stream;
  }

  const std::vector<JobOutcome>& outcomes() const { return outcomes_; }

 private:
  /// The threaded farm's worker count on open-durable.
  static constexpr std::size_t kOpenWorkers = 2;

  /// Stages the whole stream, each job held until its arrival.
  void admit_all(const vlsip::workload::JobStream& stream) {
    Span span(trace_, kSpanAdmit);
    for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
      PendingJob p;
      p.id = i + 1;
      p.job = stream.jobs[i].job;
      p.not_before = stream.jobs[i].arrival;
      queue_.push_back(std::move(p));
    }
  }

  /// Deterministic farm: the whole stream is staged, then one worker
  /// serves it. Arrival holds only move the virtual clock, which the
  /// replay does not need, so jobs are served back to back.
  void serve_local(const vlsip::workload::JobStream& stream) {
    admit_all(stream);
    Slot& slot = slots_.front();
    while (!queue_.empty()) {
      begin_batch(slot);
      while (slot.busy()) serve_next(slot);
      end_batch(slot);
    }
  }

  /// Threaded farm fed open-loop: the stream is staged up front with
  /// its due times and two workers each hold a batch, serving every
  /// job at its due time. One thread plays both workers, always
  /// advancing the one whose next job is due first.
  void serve_open(const vlsip::workload::JobStream& stream) {
    const auto base = Clock::now();
    admit_all(stream);
    const auto due = [&](const Slot& slot) {
      return base + std::chrono::microseconds(slot.batch[slot.next].not_before);
    };
    for (;;) {
      for (Slot& slot : slots_) {
        if (!slot.busy() && !queue_.empty()) begin_batch(slot);
      }
      Slot* first = nullptr;
      for (Slot& slot : slots_) {
        if (slot.busy() && (first == nullptr || due(slot) < due(*first))) {
          first = &slot;
        }
      }
      if (first == nullptr) break;
      if (due(*first) > Clock::now()) {
        Span span(trace_, kSpanHold);
        std::this_thread::sleep_until(due(*first));
      }
      serve_next(*first);
      if (!first->busy()) end_batch(*first);
    }
  }

  /// Hub path: each job's SubmitJob and AssignJob hops, the worker
  /// daemon's windows of assignments on its farm, and the JobResult
  /// hops back (in finish()).
  void serve_hub(const vlsip::workload::JobStream& stream) {
    Slot& slot = slots_.front();
    for (std::size_t start = 0; start < stream.jobs.size();
         start += kHubWindow) {
      const std::size_t end = std::min(stream.jobs.size(), start + kHubWindow);
      for (std::size_t i = start; i < end; ++i) {
        vlsip::net::SubmitJobMsg submit;
        submit.seq = i;
        submit.job = stream.jobs[i].job;
        submit = wire_hop(submit, trace_);
        vlsip::net::AssignJobMsg assign;
        assign.job_id = i + 1;
        assign.job = std::move(submit.job);
        assign = wire_hop(assign, trace_);
        PendingJob p;
        p.id = assign.job_id;
        p.job = std::move(assign.job);
        queue_.push_back(std::move(p));
      }
      while (!queue_.empty()) {
        begin_batch(slot);
        while (slot.busy()) serve_next(slot);
        end_batch(slot);
      }
    }
  }

  /// runtime::take_batch, then one fuse for the batch.
  void begin_batch(Slot& slot) {
    {
      Span span(trace_, kSpanTakeBatch);
      vlsip::runtime::BatchPolicy policy;
      policy.max_jobs = kBatchJobs;
      slot.batch = vlsip::runtime::take_batch(queue_, policy);
      slot.next = 0;
    }
    ++batches_;
    Span span(trace_, kSpanFuse);
    slot.proc = slot.chip->fuse(slot.batch.front().job.requested_clusters);
  }

  /// Release, the open-loop checkpoint, and the probe republish that
  /// ChipFarm::health_check does after every batch.
  void end_batch(Slot& slot) {
    if (slot.proc != vlsip::scaling::kNoProc) {
      Span span(trace_, kSpanRelease);
      slot.chip->release(slot.proc);
    }
    if (def_.drive == Drive::kOpen) checkpoint(slot);
    Span span(trace_, kSpanPublish);
    vlsip::obs::MetricRegistry probes;
    slot.chip->export_obs(probes);
  }

  /// scaling::run_job_on, call by call, for the slot's next job.
  void serve_next(Slot& slot) {
    const PendingJob& p = slot.batch[slot.next++];
    JobOutcome outcome;
    outcome.name = p.job.name;
    if (slot.proc == vlsip::scaling::kNoProc) {
      outcome.status = JobStatus::kNoAllocation;
      finish(p, std::move(outcome));
      return;
    }
    auto& manager = slot.chip->manager();
    auto& ap = manager.processor(slot.proc);
    {
      Span span(trace_, kSpanConfigure);
      outcome.config_cycles = ap.configure(p.job.program).cycles;
    }
    {
      Span span(trace_, kSpanRun);
      for (const auto& [name, words] : p.job.inputs) {
        for (const auto& w : words) ap.feed(name, w);
      }
      manager.activate(slot.proc);
      try {
        const vlsip::ap::ExecStats exec = ap.run(
            p.job.expected_per_output,
            p.job.max_cycles != 0 ? p.job.max_cycles : kDefaultMaxCycles);
        outcome.exec_cycles = exec.cycles;
        outcome.status = exec.completed    ? JobStatus::kCompleted
                         : exec.deadlocked ? JobStatus::kDeadlocked
                                           : JobStatus::kTimedOut;
      } catch (const std::exception& e) {
        outcome.status = JobStatus::kError;
        outcome.detail = e.what();
      }
      manager.deactivate(slot.proc);
      if (outcome.status == JobStatus::kCompleted) {
        for (const auto& [name, obj] : p.job.program.outputs) {
          (void)obj;
          outcome.outputs[name] = ap.output(name);
        }
      }
    }
    finish(p, std::move(outcome));
  }

  void finish(const PendingJob& p, JobOutcome outcome) {
    if (def_.drive == Drive::kHub) {
      vlsip::net::JobResultMsg result;
      result.id = p.id;
      result.outcome = std::move(outcome);
      result = wire_hop(result, trace_);  // worker -> hub
      result.id = p.id - 1;               // re-keyed to the client seq
      result = wire_hop(result, trace_);  // hub -> client
      outcome = std::move(result.outcome);
    }
    outcomes_.push_back(std::move(outcome));
  }

  /// ChipFarm::maybe_checkpoint with incremental checkpoints every batch.
  void checkpoint(Slot& slot) {
    Span span(trace_, kSpanCheckpoint);
    vlsip::core::SaveProfile previous = std::move(slot.profile);
    vlsip::Status saved = vlsip::Status::Ok();
    if (previous.valid() && slot.deltas < kKeyframeEvery) {
      saved = slot.chip->save_profiled(slot.profile, previous);
      if (saved.ok()) {
        ++slot.deltas;
        vlsip::snapshot::encode_delta(previous.flat, previous.index,
                                      slot.profile.flat, slot.profile.index);
      }
    } else {
      saved = slot.chip->save_profiled(slot.profile);
      slot.keyframe = slot.profile.flat;
      slot.deltas = 0;
    }
    if (!saved.ok()) throw std::runtime_error(saved.to_string());
    slot.last_checkpoint = slot.profile.flat;
  }

  const WorkloadDef& def_;
  std::uint64_t seed_;
  TraceResult& trace_;
  std::vector<Slot> slots_;
  std::deque<PendingJob> queue_;
  std::vector<JobOutcome> outcomes_;
  std::uint64_t batches_ = 0;
};

}  // namespace

const char* span_name(std::size_t id) { return kSpanNames[id]; }

TraceResult replay(const WorkloadDef& def, std::uint64_t seed,
                   const Reference& reference) {
  TraceResult trace;
  Replayer replayer(def, seed, trace);
  const vlsip::workload::JobStream stream = replayer.run();
  // Checked after the wall clock stopped: the check is not the program's.
  Ledger ledger(stream, reference);
  for (const JobOutcome& outcome : replayer.outcomes()) ledger.add(outcome);
  ledger.close();
  trace.jobs = stream.jobs.size();
  trace.tally = ledger.tally();
  trace.completed = ledger.completed();
  trace.config_cycles = ledger.config_cycles();
  trace.exec_cycles = ledger.exec_cycles();
  return trace;
}

void write(PipeOut& out, const TraceResult& t) {
  out.f64(t.wall_us);
  for (const SpanTotals& span : t.spans) {
    out.f64(span.us);
    out.u64(span.calls);
  }
  out.u64(t.jobs);
  out.u64(t.completed);
  write(out, t.tally);
  out.u64(t.config_cycles);
  out.u64(t.exec_cycles);
  out.u64(t.wire_bytes);
  out.counters(t.counters);
}

void read(PipeIn& in, TraceResult& t) {
  t.wall_us = in.f64();
  for (SpanTotals& span : t.spans) {
    span.us = in.f64();
    span.calls = in.u64();
  }
  t.jobs = in.u64();
  t.completed = in.u64();
  read(in, t.tally);
  t.config_cycles = in.u64();
  t.exec_cycles = in.u64();
  t.wire_bytes = in.u64();
  t.counters = in.counters();
}

}  // namespace perfbench
