// The serving benchmark's workloads and the untraced drives behind them.
//
// Every workload is a seeded scenario pack expanded by
// workload::JobStreamBuilder and served through public APIs only:
//
//   steady-local  @preset:steady, deterministic in-process ChipFarm
//                 (1 worker, virtual clock), whole stream then drain()
//   open-durable  @preset:steady released open-loop at its due ticks
//                 into a threaded ChipFarm (2 workers, batch 8,
//                 incremental checkpoints every batch)
//   hub-steady    @preset:steady through a daemon::Hub and one
//                 daemon::WorkerDaemon on a Unix socket, one
//                 net::HubClient connection with a window of 8, all
//                 on one CPU
//
// One repetition (run_rep) times its own set-up (pack load, stream
// build, farm / hub / worker start and connect) apart from the serve,
// then checks every job's outputs against a reference computed before
// any timing (build_reference: the same job on a fresh chip via
// scaling::run_job, in a child process).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/object.hpp"
#include "child.hpp"
#include "obs/metrics.hpp"
#include "scaling/job.hpp"
#include "stats.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

enum class Drive { kLocal, kOpen, kHub };

struct WorkloadDef {
  const char* name;
  /// Builtin pack name for workload::load_pack ("@preset:NAME:seed:jobs").
  const char* preset;
  std::size_t jobs;
  Drive drive;
  /// Each repetition serves its own stream (see stream_seed) instead of
  /// repeating the run's one stream.
  bool stream_per_rep;
  /// Each repetition's process and every thread it starts run on one
  /// CPU (pin_to_one_cpu).
  bool one_cpu;
};

/// The workloads; nullptr from find_workload on an unknown name.
const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(const std::string& name);

/// Pack seed of repetition `rep` of a run with seed `seed`: the run's
/// seed itself, or on a stream_per_rep workload seed * 1000 + rep, so
/// one run averages over several streams and still takes every input
/// from its seed.
std::uint64_t stream_seed(const WorkloadDef& def, std::uint64_t seed, int rep);

/// Pack load + stream build for `def` at `seed` (throws on a bad pack).
vlsip::workload::JobStream build_stream(const WorkloadDef& def,
                                        std::uint64_t seed);

using Outputs = std::map<std::string, std::vector<vlsip::arch::Word>>;

/// Expected outputs by job name.
using Reference = std::map<std::string, Outputs>;

/// The reference outputs of the stream of `def` at pack seed `seed`:
/// each job on a fresh chip (scaling::run_job), split over a few
/// threads, in a child process (child.hpp), so none of its heap use
/// stays in the process the repetitions fork from. Throws if a
/// reference job itself does not complete.
Reference build_reference(const WorkloadDef& def, std::uint64_t seed);

/// Matches served outcomes to a stream: each job must be answered
/// exactly once, complete, and reproduce its reference outputs.
class Ledger {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Ledger(const vlsip::workload::JobStream& stream, const Reference& reference);

  /// Tallies one served outcome. Returns the stream index of the job it
  /// answers, or npos for a result that answers no open job (unknown
  /// name or a second answer), which counts as a failure.
  std::size_t add(const vlsip::scaling::JobOutcome& outcome);

  /// Counts every job still unanswered as failed. Call once, at the end.
  void close();

  const FailureTally& tally() const { return tally_; }
  std::size_t completed() const { return completed_; }
  /// Simulated config + exec cycles over every answered job.
  std::uint64_t config_cycles() const { return config_cycles_; }
  std::uint64_t exec_cycles() const { return exec_cycles_; }

 private:
  const vlsip::workload::JobStream& stream_;
  const Reference& reference_;
  std::map<std::string, std::size_t> index_;
  std::vector<bool> seen_;
  FailureTally tally_;
  std::size_t completed_ = 0;
  std::uint64_t config_cycles_ = 0;
  std::uint64_t exec_cycles_ = 0;
};

/// Deterministic simulated aggregates of one repetition; on the local
/// workloads every repetition of a seed must produce the same values.
struct SimFingerprint {
  std::uint64_t config_cycles = 0;
  std::uint64_t exec_cycles = 0;
  std::uint64_t turnaround_sum = 0;
  std::uint64_t batches = 0;

  bool operator==(const SimFingerprint&) const = default;
};

/// What one untraced repetition measured.
struct RepResult {
  double setup_s = 0;
  /// First submit to last result.
  double serve_s = 0;
  /// The repetition's process's resident-set high-water mark, in MB.
  double peak_rss_mb = 0;
  std::size_t jobs = 0;
  std::size_t completed = 0;
  FailureTally tally;
  /// Host microseconds from each job's due time to its result.
  std::vector<double> latency_us;
  /// Host microseconds a job waited before service, and its service.
  std::vector<double> wait_us;
  std::vector<double> service_us;
  /// Virtual-clock turnaround and queue wait (local drives only).
  std::vector<double> sim_latency_cycles;
  std::vector<double> sim_wait_cycles;
  SimFingerprint sim;
  std::uint64_t late_jobs = 0;
  /// Layer counters read after the serve.
  std::map<std::string, double> counters;
};

/// A repetition's result across the pipe from its child process.
void write(PipeOut& out, const FailureTally& t);
void read(PipeIn& in, FailureTally& t);
void write(PipeOut& out, const RepResult& r);
void read(PipeIn& in, RepResult& r);

/// Copies every counter of a chip's or a farm's probe registry
/// ("ap.config.hits", "ap.csd.grants", ...) into `out`.
void read_layer_counters(const vlsip::obs::MetricRegistry& registry,
                         std::map<std::string, double>& out);

/// Pins the calling process, and every thread it starts afterwards, to
/// the last CPU of its affinity mask. False if the mask cannot be read
/// or set.
bool pin_to_one_cpu();

/// One set-up + serve + check repetition of `def` on the stream of pack
/// seed `seed`; the hub workload listens in directory `sock_dir`.
RepResult run_rep(const WorkloadDef& def, std::uint64_t seed,
                  const Reference& reference, const std::string& sock_dir,
                  int rep);

/// Config cycles per completed job of `stream` in the deterministic
/// in-process farm (the steady-local drive, untimed).
double local_config_cycles_per_job(const vlsip::workload::JobStream& stream);

}  // namespace perfbench
