#include "drive.hpp"

#include <sched.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/vlsi_processor.hpp"
#include "daemon/hub.hpp"
#include "daemon/worker.hpp"
#include "net/client.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using vlsip::scaling::JobOutcome;
using vlsip::scaling::JobStatus;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

template <typename T>
T value_or_throw(vlsip::StatusOr<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().to_string());
  }
  return std::move(*result);
}

void require_ok(const vlsip::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.to_string());
}

/// A counter's value, or 0 when the registry has none by that name.
double counter(const vlsip::obs::MetricRegistry& registry,
               const std::string& name) {
  const auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0.0
                                         : static_cast<double>(it->second);
}

/// Layer counters plus the farm's batching and checkpoint figures.
void read_farm_counters(const vlsip::runtime::ChipFarm& farm,
                        std::map<std::string, double>& out) {
  read_layer_counters(farm.obs_metrics(), out);
  const vlsip::runtime::FarmMetrics m = farm.metrics();
  out["batches"] = static_cast<double>(m.batches);
  out["checkpoint_bytes"] = m.checkpoint_bytes.mean();
  out["checkpoint_full_bytes"] = m.checkpoint_full_bytes.mean();
}

/// Compares one served result with the reference and tallies it.
void check_outcome(const Reference& reference, const std::string& name,
                   bool completed, const Outputs& outputs,
                   FailureTally& tally) {
  const auto it = reference.find(name);
  if (it == reference.end()) {
    tally.fail("result for unknown job " + name);
    return;
  }
  if (!completed) {
    tally.fail(name + " did not complete");
    return;
  }
  const Outputs& expected = it->second;
  bool same = outputs.size() == expected.size();
  for (auto e = expected.begin(), o = outputs.begin();
       same && e != expected.end(); ++e, ++o) {
    same = e->first == o->first && e->second.size() == o->second.size() &&
           std::equal(e->second.begin(), e->second.end(), o->second.begin(),
                      [](vlsip::arch::Word a, vlsip::arch::Word b) {
                        return a.u == b.u;
                      });
  }
  if (same) {
    tally.ok();
  } else {
    tally.fail(name + " outputs differ from the reference");
  }
}

/// Copies a closed ledger into the repetition result.
void settle(const Ledger& ledger, RepResult& result) {
  result.tally = ledger.tally();
  result.completed = ledger.completed();
  result.sim.config_cycles = ledger.config_cycles();
  result.sim.exec_cycles = ledger.exec_cycles();
}

/// Deterministic in-process farm: whole stream staged, then drain().
RepResult rep_local(const WorkloadDef& def, std::uint64_t seed,
                    const Reference& reference) {
  RepResult result;
  const auto t_setup = Clock::now();
  const vlsip::workload::JobStream stream = build_stream(def, seed);
  vlsip::runtime::ChipFarm farm(vlsip::runtime::FarmConfigBuilder()
                                    .deterministic()
                                    .batch(8)
                                    .keep_outcome_log(true)
                                    .build());
  const std::size_t n = stream.jobs.size();
  result.jobs = n;
  // Completion stamps, written by the farm's worker thread; read only
  // after drain() has returned.
  std::vector<Clock::time_point> done(n);
  const auto t_submit = Clock::now();
  result.setup_s = seconds_between(t_setup, t_submit);

  for (std::size_t i = 0; i < n; ++i) {
    vlsip::runtime::SubmitOptions options;
    options.arrival_tick = stream.jobs[i].arrival;
    options.on_complete = [&done, i](const JobOutcome&) {
      done[i] = Clock::now();
    };
    if (!farm.submit(stream.jobs[i].job, std::move(options)).admitted) {
      throw std::runtime_error("deterministic farm rejected a job");
    }
  }
  const auto t_drain = Clock::now();
  farm.drain();
  const auto t_end = Clock::now();
  result.serve_s = seconds_between(t_submit, t_end);

  // The whole stream is due at the first submit. One serial worker:
  // a job's host service is the gap since the previous completion.
  std::vector<Clock::time_point> order;
  for (const auto& t : done) {
    if (t != Clock::time_point{}) order.push_back(t);
  }
  std::sort(order.begin(), order.end());
  Clock::time_point prev = t_drain;
  for (const auto& t : order) {
    result.latency_us.push_back(micros_between(t_submit, t));
    result.wait_us.push_back(micros_between(t_submit, prev));
    result.service_us.push_back(micros_between(prev, t));
    prev = t;
  }

  Ledger ledger(stream, reference);
  for (const JobOutcome& outcome : farm.outcome_log()) {
    ledger.add(outcome);
    result.sim_latency_cycles.push_back(
        static_cast<double>(outcome.turnaround()));
    result.sim_wait_cycles.push_back(
        static_cast<double>(outcome.started_at - outcome.queued_at));
    result.sim.turnaround_sum += outcome.turnaround();
  }
  read_farm_counters(farm, result.counters);
  result.sim.batches = static_cast<std::uint64_t>(result.counters["batches"]);
  ledger.close();
  settle(ledger, result);
  return result;
}

/// Threaded farm fed open-loop: every job carries its due tick, the
/// farm holds it until then.
RepResult rep_open(const WorkloadDef& def, std::uint64_t seed,
                   const Reference& reference) {
  RepResult result;
  const auto t_setup = Clock::now();
  const vlsip::workload::JobStream stream = build_stream(def, seed);
  const std::size_t n = stream.jobs.size();
  vlsip::runtime::ChipFarm farm(vlsip::runtime::FarmConfigBuilder()
                                    .workers(2)
                                    .batch(8)
                                    .queue(n + 1, /*block_when_full=*/true)
                                    .checkpoint_every(1)
                                    .incremental_checkpoints(true)
                                    .keep_outcome_log(true)
                                    .build());
  result.jobs = n;
  const auto t_start = Clock::now();
  result.setup_s = seconds_between(t_setup, t_start);

  // The schedule starts once set-up is done. Pack arrivals are farm
  // ticks, which a threaded farm counts in microseconds.
  constexpr std::uint64_t kLeadTicks = 1000;
  const std::uint64_t base = farm.now() + kLeadTicks;
  for (const auto& timed : stream.jobs) {
    const std::uint64_t tick = base + timed.arrival;
    if (farm.now() > tick) ++result.late_jobs;
    vlsip::runtime::SubmitOptions options;
    options.arrival_tick = tick;
    if (!farm.submit(timed.job, std::move(options)).admitted) {
      throw std::runtime_error("open-loop farm rejected a job");
    }
  }
  farm.drain();

  Ledger ledger(stream, reference);
  std::uint64_t last = base;
  for (const JobOutcome& outcome : farm.outcome_log()) {
    const std::size_t i = ledger.add(outcome);
    if (i == Ledger::npos) continue;
    const std::uint64_t t_due = base + stream.jobs[i].arrival;
    last = std::max(last, outcome.finished_at);
    result.latency_us.push_back(
        static_cast<double>(outcome.finished_at - t_due));
    result.wait_us.push_back(static_cast<double>(outcome.started_at) -
                             static_cast<double>(t_due));
    result.service_us.push_back(
        static_cast<double>(outcome.finished_at - outcome.started_at));
  }
  result.serve_s = static_cast<double>(last - base) / 1e6;
  read_farm_counters(farm, result.counters);
  result.sim.batches = static_cast<std::uint64_t>(result.counters["batches"]);
  ledger.close();
  settle(ledger, result);
  return result;
}

/// A hub and one worker daemon serving on its own thread, listening on
/// the Unix socket `path`. Tearing down stops the hub first, which ends
/// the worker's serving loop, so no exit path can leave a thread behind.
class HubStack {
 public:
  explicit HubStack(const std::string& path) : path_(path) {
    std::remove(path_.c_str());
    vlsip::daemon::HubOptions hub_options;
    hub_options.listen = "unix:" + path_;
    hub_ = std::make_unique<vlsip::daemon::Hub>(hub_options);
    require_ok(hub_->start(), "hub start");
    vlsip::daemon::WorkerOptions worker_options;
    worker_options.hub = hub_->address();
    worker_options.name = "bench-worker";
    worker_options.farm = vlsip::runtime::FarmConfigBuilder()
                              .workers(1)
                              .batch(8)
                              .queue(64, /*block_when_full=*/true)
                              .build();
    worker_ = std::make_unique<vlsip::daemon::WorkerDaemon>(worker_options);
    require_ok(worker_->connect(), "worker connect");
    thread_ = std::thread([this] { worker_->run(); });
  }

  ~HubStack() {
    hub_->stop();
    if (thread_.joinable()) thread_.join();
    std::remove(path_.c_str());
  }

  HubStack(const HubStack&) = delete;
  HubStack& operator=(const HubStack&) = delete;

  vlsip::daemon::Hub& hub() { return *hub_; }

 private:
  std::string path_;
  std::unique_ptr<vlsip::daemon::Hub> hub_;
  std::unique_ptr<vlsip::daemon::WorkerDaemon> worker_;
  std::thread thread_;
};

/// The client's window: the jobs it keeps in flight. The hub hands a
/// worker at most eight assignments at a time (HubOptions'
/// assign_window), so a wider window only queues jobs at the hub, and
/// their latency becomes queueing time that swings with host speed.
constexpr std::size_t kHubWindow = 8;

/// Closed loop through a hub and one worker daemon on a Unix socket.
RepResult rep_hub(const WorkloadDef& def, std::uint64_t seed,
                  const Reference& reference, const std::string& sock_dir,
                  int rep) {
  RepResult result;
  const auto t_setup = Clock::now();
  const vlsip::workload::JobStream stream = build_stream(def, seed);
  const std::size_t n = stream.jobs.size();
  HubStack stack(sock_dir + "/hub-" + std::to_string(::getpid()) + "-" +
                 std::to_string(rep) + ".sock");
  vlsip::net::HubClient::Options client_options;
  client_options.hub = stack.hub().address();
  client_options.name = "perfbench";
  client_options.max_in_flight = kHubWindow;
  vlsip::net::HubClient client = value_or_throw(
      vlsip::net::HubClient::connect(client_options), "client connect");
  const auto t_start = Clock::now();
  result.setup_s = seconds_between(t_setup, t_start);
  result.jobs = n;

  Ledger ledger(stream, reference);
  std::vector<Clock::time_point> submitted(n);
  std::size_t collected = 0;
  double blocked_us = 0;
  const auto take = [&](std::size_t count) {
    const auto t0 = Clock::now();
    auto results = value_or_throw(client.collect(count), "collect");
    const auto t1 = Clock::now();
    blocked_us += micros_between(t0, t1);
    collected += results.size();
    for (const auto& r : results) {
      const std::size_t i = ledger.add(r.outcome);
      if (i == Ledger::npos) continue;
      // Seqs are assigned 0, 1, 2, ... in submit order.
      if (r.id != i) {
        throw std::runtime_error("result seq does not match its job");
      }
      result.latency_us.push_back(micros_between(submitted[i], t1));
      result.wait_us.push_back(static_cast<double>(r.outcome.started_at) -
                               static_cast<double>(r.outcome.queued_at));
      result.service_us.push_back(static_cast<double>(
          r.outcome.finished_at - r.outcome.started_at));
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    submitted[i] = Clock::now();
    const std::uint64_t seq =
        value_or_throw(client.submit(stream.jobs[i].job), "submit");
    blocked_us += micros_between(submitted[i], Clock::now());
    if (seq != i) throw std::runtime_error("hub client seqs out of order");
    const std::size_t buffered = (i + 1) - collected - client.in_flight();
    if (buffered > 0) take(buffered);
  }
  while (collected < n) take(1);
  result.serve_s = seconds_between(t_start, Clock::now());
  ledger.close();
  settle(ledger, result);

  result.counters["hub.jobs_requeued"] =
      counter(stack.hub().metrics(), "hub.jobs_requeued");
  result.counters["client_blocked_us"] = blocked_us;
  client.goodbye();
  return result;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"steady-local", "steady", 20000, Drive::kLocal, false, false},
      // The open loop's latency depends far more on which stream it
      // serves (p50 13-21 ms across 10k-job streams) than on the run
      // (+-3% across repetitions of one stream), so each repetition takes
      // its own. Per second of schedule, 5k-job streams varied least.
      {"open-durable", "steady", 5000, Drive::kOpen, true, false},
      // The hub path's tail latency, too, moved more from stream to
      // stream than from run to run of one stream. Every job crosses
      // the client, hub, worker and farm threads; spread over the
      // CPUs of a virtual machine, each hand-off may wait for the
      // hypervisor to resume an idle virtual CPU, a wait set by the
      // host's load rather than by the program, so the repetition runs
      // on one CPU and each hand-off is a context switch the program
      // itself pays for.
      {"hub-steady", "steady", 10000, Drive::kHub, true, true},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& def : workloads()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

vlsip::workload::JobStream build_stream(const WorkloadDef& def,
                                        std::uint64_t seed) {
  const std::string ref = std::string("@preset:") + def.preset + ":" +
                          std::to_string(seed) + ":" +
                          std::to_string(def.jobs);
  vlsip::workload::ScenarioPack pack =
      value_or_throw(vlsip::workload::load_pack(ref), "load_pack " + ref);
  return value_or_throw(
      vlsip::workload::JobStreamBuilder().pack(std::move(pack)).try_build(),
      "stream build " + ref);
}

std::uint64_t stream_seed(const WorkloadDef& def, std::uint64_t seed,
                          int rep) {
  return def.stream_per_rep ? seed * 1000 + static_cast<std::uint64_t>(rep)
                            : seed;
}

namespace {

/// Each job of `stream` on a fresh chip, over a few threads joined
/// before it returns.
Reference reference_of(const vlsip::workload::JobStream& stream) {
  constexpr std::size_t kThreads = 4;
  std::vector<Reference> parts(kThreads);
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < stream.jobs.size(); i += kThreads) {
          const vlsip::scaling::Job& job = stream.jobs[i].job;
          vlsip::core::VlsiProcessor chip;
          JobOutcome outcome = vlsip::scaling::run_job(chip.manager(), job);
          if (outcome.status != JobStatus::kCompleted) {
            throw std::runtime_error("reference run of " + job.name +
                                     " did not complete: " + outcome.detail);
          }
          parts[t][job.name] = std::move(outcome.outputs);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  Reference reference;
  for (auto& part : parts) reference.merge(part);
  return reference;
}

}  // namespace

Reference build_reference(const WorkloadDef& def, std::uint64_t seed) {
  Reference ref;
  run_in_child(
      [&](PipeOut& out) {
        const Reference built = reference_of(build_stream(def, seed));
        out.u64(built.size());
        for (const auto& [job, outputs] : built) {
          out.str(job);
          out.u64(outputs.size());
          for (const auto& [port, words] : outputs) {
            out.str(port);
            out.u64(words.size());
            for (const vlsip::arch::Word w : words) out.u64(w.u);
          }
        }
      },
      [&](PipeIn& in) {
        for (std::uint64_t j = in.u64(); j > 0; --j) {
          Outputs& outputs = ref[in.str()];
          for (std::uint64_t p = in.u64(); p > 0; --p) {
            std::vector<vlsip::arch::Word>& words = outputs[in.str()];
            words.resize(in.u64());
            for (vlsip::arch::Word& w : words) w.u = in.u64();
          }
        }
      });
  return ref;
}

void write(PipeOut& out, const FailureTally& t) {
  out.u64(t.attempted);
  out.u64(t.failed);
  out.u64(t.examples.size());
  for (const auto& e : t.examples) out.str(e);
}

void read(PipeIn& in, FailureTally& t) {
  t.attempted = in.u64();
  t.failed = in.u64();
  t.examples.resize(in.u64());
  for (auto& e : t.examples) e = in.str();
}

void write(PipeOut& out, const RepResult& r) {
  out.f64(r.setup_s);
  out.f64(r.serve_s);
  out.f64(r.peak_rss_mb);
  out.u64(r.jobs);
  out.u64(r.completed);
  write(out, r.tally);
  out.f64s(r.latency_us);
  out.f64s(r.wait_us);
  out.f64s(r.service_us);
  out.f64s(r.sim_latency_cycles);
  out.f64s(r.sim_wait_cycles);
  out.u64(r.sim.config_cycles);
  out.u64(r.sim.exec_cycles);
  out.u64(r.sim.turnaround_sum);
  out.u64(r.sim.batches);
  out.u64(r.late_jobs);
  out.counters(r.counters);
}

void read(PipeIn& in, RepResult& r) {
  r.setup_s = in.f64();
  r.serve_s = in.f64();
  r.peak_rss_mb = in.f64();
  r.jobs = in.u64();
  r.completed = in.u64();
  read(in, r.tally);
  r.latency_us = in.f64s();
  r.wait_us = in.f64s();
  r.service_us = in.f64s();
  r.sim_latency_cycles = in.f64s();
  r.sim_wait_cycles = in.f64s();
  r.sim.config_cycles = in.u64();
  r.sim.exec_cycles = in.u64();
  r.sim.turnaround_sum = in.u64();
  r.sim.batches = in.u64();
  r.late_jobs = in.u64();
  r.counters = in.counters();
}

Ledger::Ledger(const vlsip::workload::JobStream& stream,
               const Reference& reference)
    : stream_(stream), reference_(reference), seen_(stream.jobs.size(), false) {
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    index_[stream.jobs[i].job.name] = i;
  }
}

std::size_t Ledger::add(const JobOutcome& outcome) {
  config_cycles_ += outcome.config_cycles;
  exec_cycles_ += outcome.exec_cycles;
  const auto it = index_.find(outcome.name);
  if (it == index_.end() || seen_[it->second]) {
    tally_.fail("unexpected or duplicate result for " + outcome.name);
    return npos;
  }
  seen_[it->second] = true;
  const bool completed = outcome.status == JobStatus::kCompleted;
  if (completed) ++completed_;
  check_outcome(reference_, outcome.name, completed, outcome.outputs, tally_);
  return it->second;
}

void Ledger::close() {
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (!seen_[i]) tally_.fail("no result for " + stream_.jobs[i].job.name);
  }
}

void read_layer_counters(const vlsip::obs::MetricRegistry& registry,
                         std::map<std::string, double>& out) {
  for (const auto& [name, value] : registry.counters()) {
    out[name] = static_cast<double>(value);
  }
}

RepResult run_rep(const WorkloadDef& def, std::uint64_t seed,
                  const Reference& reference, const std::string& sock_dir,
                  int rep) {
  switch (def.drive) {
    case Drive::kLocal:
      return rep_local(def, seed, reference);
    case Drive::kOpen:
      return rep_open(def, seed, reference);
    case Drive::kHub:
      return rep_hub(def, seed, reference, sock_dir, rep);
  }
  throw std::logic_error("unknown drive");
}

bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

double local_config_cycles_per_job(const vlsip::workload::JobStream& stream) {
  vlsip::runtime::ChipFarm farm(
      vlsip::runtime::FarmConfigBuilder().deterministic().batch(8).build());
  for (const auto& timed : stream.jobs) {
    vlsip::runtime::SubmitOptions options;
    options.arrival_tick = timed.arrival;
    farm.submit(timed.job, std::move(options));
  }
  farm.drain();
  const vlsip::runtime::FarmMetrics m = farm.metrics();
  return m.completed == 0 ? 0.0
                          : static_cast<double>(m.config_cycles) /
                                static_cast<double>(m.completed);
}

}  // namespace perfbench
