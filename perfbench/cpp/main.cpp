// perfbench — the serving benchmark's main program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--sock-dir DIR]
//
// Builds the workload's job stream from the seed, computes the
// reference outputs (untimed), then repeats set-up + serve until S
// seconds have passed, each repetition in a child process of its own
// (child.hpp). --trace 0 reports the end-to-end metrics of
// those untraced repetitions; --trace 1 spends half the time on
// untraced repetitions and the rest on traced replays (replay.hpp) and
// reports the per-layer metrics. Every metric is printed by name with
// its unit; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit 0 only when every
// job completed with its reference outputs and, on the local
// workloads, every repetition reproduced the same simulated figures.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "drive.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string sock_dir = ".bench_build";
};

/// Repetitions every run makes at least, whatever --seconds says, so
/// set-up time is a median of several.
constexpr int kMinReps = 3;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--sock-dir DIR]\nworkloads:";
  for (const auto& def : workloads()) std::cerr << " " << def.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--commit") {
        args.commit = value;
      } else if (key == "--sock-dir") {
        args.sock_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks:
/// {stolen by the hypervisor, total}; zeros where it cannot be read.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0;
  double steal = 0;
  double v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Resets the kernel's resident-set high-water mark, so the next
/// peak_rss_mb() covers only what follows. False where the kernel does
/// not allow it; the peak then covers the whole process.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

/// Resident-set high-water mark (VmHWM), falling back to getrusage.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Concatenates one sample series over every repetition.
std::vector<double> pooled(const std::vector<RepResult>& reps,
                           std::vector<double> RepResult::*series) {
  std::vector<double> all;
  for (const auto& r : reps) {
    all.insert(all.end(), (r.*series).begin(), (r.*series).end());
  }
  return all;
}

/// Collects metrics in print order and renders the text and JSON forms.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }

  /// A nearest-rank percentile, with its sample count and the samples
  /// beyond it in the note.
  void add_percentile(const std::string& name, std::vector<double> samples,
                      double pct, const std::string& unit,
                      const std::string& note) {
    if (samples.empty()) {
      add(name, 0.0, unit, "no samples on this workload");
      return;
    }
    const Percentile p = percentile(samples, pct);
    add(name, p.value, unit,
        note + " (n=" + std::to_string(p.samples) + ", " +
            std::to_string(p.beyond) + " beyond)");
  }

  void print_text(std::ostream& out) const {
    for (const auto& r : rows_) {
      out << "metric " << r.name << " = " << format(r.value) << " " << r.unit;
      if (!r.note.empty()) out << "  # " << r.note;
      out << "\n";
    }
  }

  std::string metrics_json() const {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << rows_[i].name << "\": {\"value\": "
          << format(rows_[i].value) << ", \"unit\": \"" << rows_[i].unit
          << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };

  static std::string format(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::vector<Row> rows_;
};

void end_to_end(const WorkloadDef& def, const std::vector<RepResult>& reps,
                const std::string& rss_note, Report& report) {
  std::vector<double> jps;
  std::vector<double> setup;
  std::vector<double> rss;
  std::vector<double> cycles_per_job;
  for (const auto& r : reps) {
    jps.push_back(ratio(static_cast<double>(r.completed), r.serve_s));
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    cycles_per_job.push_back(
        ratio(static_cast<double>(r.sim.config_cycles + r.sim.exec_cycles),
              static_cast<double>(r.completed)));
  }
  const std::string reps_note =
      "median of " + std::to_string(reps.size()) + " repetitions";
  std::string each;
  for (const double v : jps) {
    each += ' ';
    each += std::to_string(std::lround(v));
  }
  report.add("jobs_per_s", median(jps), "1/s",
             reps_note + " of " + std::to_string(reps.front().jobs) +
                 " jobs:" + each);
  const std::string due =
      def.drive == Drive::kOpen
          ? "host us from due tick to finished"
          : (def.drive == Drive::kHub
                 ? "host us from submit to result at the client"
                 : "host us from batch submit to completion");
  // One percentile over every job of every repetition. A repetition's
  // own p99 can rest on few events: on hub-steady about a dozen host
  // stalls, each holding up a whole window of jobs, so it swung by half
  // from one repetition to the next. The run's pooled tail rests on all
  // of them. Each repetition's own figure is listed for reference.
  for (const double pct : {50.0, 99.0}) {
    std::string listed;
    for (const auto& r : reps) {
      std::vector<double> v = r.latency_us;
      listed += ' ';
      listed += std::to_string(std::lround(percentile(v, pct).value));
    }
    report.add_percentile(
        pct == 50.0 ? "latency_p50_us" : "latency_p99_us",
        pooled(reps, &RepResult::latency_us), pct, "us",
        due + "; over every job of " + std::to_string(reps.size()) +
            " repetitions, each one's own:" + listed);
  }
  report.add("sim_cycles_per_job", median(cycles_per_job), "cycles",
             "config+exec per completed job, " + reps_note);
  report.add("setup_s", median(setup), "s", reps_note);
  report.add("peak_rss_mb", median(rss), "MB", rss_note + ", " + reps_note);
}

/// Sums span totals and cycle counts over the traced replays.
TraceResult fold(const std::vector<TraceResult>& traces) {
  TraceResult total;
  for (const auto& t : traces) {
    total.wall_us += t.wall_us;
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      total.spans[i].us += t.spans[i].us;
      total.spans[i].calls += t.spans[i].calls;
    }
    total.jobs += t.jobs;
    total.completed += t.completed;
    total.wire_bytes += t.wire_bytes;
  }
  return total;
}

void per_layer(const WorkloadDef& def, std::uint64_t seed,
               const std::vector<RepResult>& reps,
               const std::vector<TraceResult>& traces, Report& report,
               std::ostream& text) {
  const RepResult& rep = reps.front();
  const TraceResult all = fold(traces);
  const TraceResult& first = traces.front();
  const bool local = def.drive == Drive::kLocal;
  const bool open = def.drive == Drive::kOpen;
  const bool hub = def.drive == Drive::kHub;
  const auto jobs = static_cast<double>(rep.jobs);
  // The hub's worker farm is private, so its chip counters are out of
  // reach there and read 0. The replay's chip is no stand-in: the real
  // worker farm spends about a third more config cycles than it does.
  const std::map<std::string, double> unreachable;
  const auto& counters = hub ? unreachable : rep.counters;
  const std::string farm_only =
      hub ? "; 0: not reachable, the worker farm is private" : "";
  const auto counter = [&](const char* key) {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  };
  const auto span_mean = [&](SpanId id) { return all.spans[id].mean_us(); };

  // The split: each span's share of the traced wall time.
  text << "trace split over " << traces.size() << " replays, wall "
       << all.wall_us / 1e6 << " s:\n";
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    if (all.spans[i].calls == 0) continue;
    text << "  span " << span_name(i) << ": " << all.spans[i].us / 1e3
         << " ms, " << all.spans[i].calls << " calls, "
         << 100.0 * all.spans[i].us / all.wall_us << "%\n";
  }
  const double uncovered = all.wall_us - all.covered_us();
  text << "  uncovered: " << uncovered / 1e3 << " ms, "
       << 100.0 * uncovered / all.wall_us << "% (spans + uncovered = wall)\n";

  report.add("workload.build_ms", span_mean(kSpanBuild) / 1e3, "ms",
             "load_pack + JobStreamBuilder::build");
  report.add("scaling.fuse_us", span_mean(kSpanFuse), "us",
             "mean per VlsiProcessor::fuse");
  report.add("scaling.release_us", span_mean(kSpanRelease), "us",
             "mean per VlsiProcessor::release");
  report.add("scaling.fuses_per_job", counter("batches") / jobs, "count",
             "one fuse per batch" + farm_only);
  report.add("ap.configure_us", span_mean(kSpanConfigure), "us",
             "mean per AdaptiveProcessor::configure");
  report.add("ap.object_hit_rate",
             ratio(counter("ap.config.hits"),
                   counter("ap.config.hits") + counter("ap.config.misses")),
             "ratio", "ap.config.hits / (hits + misses)" + farm_only);
  report.add("ap.evictions_per_job", counter("ap.config.evictions") / jobs,
             "count", "ap.config.evictions per job" + farm_only);
  report.add("ap.route_failures", counter("ap.config.route_failures"), "count",
             "ap.config.route_failures over the stream" + farm_only);
  report.add("csd.grant_ratio",
             ratio(counter("ap.csd.grants"), counter("ap.csd.requests")),
             "ratio", "ap.csd.grants / ap.csd.requests" + farm_only);
  report.add("ap.config_cycles_per_job",
             ratio(static_cast<double>(rep.sim.config_cycles),
                   static_cast<double>(rep.completed)),
             "cycles", "JobOutcome::config_cycles per completed job");
  report.add("ap.exec_cycles_per_job",
             ratio(static_cast<double>(rep.sim.exec_cycles),
                   static_cast<double>(rep.completed)),
             "cycles", "JobOutcome::exec_cycles per completed job");
  report.add("ap.run_us", span_mean(kSpanRun), "us",
             "mean per feed + run");
  report.add("ap.firings_per_job", counter("ap.exec.firings") / jobs, "count",
             "ap.exec.firings per job" + farm_only);

  const char* wait_src =
      local ? "host, previous completion - batch submit (serial worker)"
            : (open ? "host, started_at - due tick"
                    : "worker farm, started_at - queued_at");
  report.add_percentile("runtime.wait_us_p50",
                        pooled(reps, &RepResult::wait_us), 50, "us", wait_src);
  report.add_percentile("runtime.wait_us_p99",
                        pooled(reps, &RepResult::wait_us), 99, "us", wait_src);
  const char* service_src =
      local ? "host, gap since the previous completion"
            : "finished_at - started_at";
  report.add_percentile("runtime.service_us_p50",
                        pooled(reps, &RepResult::service_us), 50, "us",
                        service_src);
  report.add_percentile("runtime.service_us_p99",
                        pooled(reps, &RepResult::service_us), 99, "us",
                        service_src);
  report.add("runtime.jobs_per_batch", ratio(jobs, counter("batches")),
             "count", "jobs / batches" + farm_only);
  report.add_percentile("runtime.sim_wait_cycles_p99", rep.sim_wait_cycles, 99,
                        "cycles", "virtual started_at - queued_at");
  report.add_percentile("sim_latency_p50_cycles", rep.sim_latency_cycles, 50,
                        "cycles", "virtual-clock turnaround");
  report.add_percentile("sim_latency_p99_cycles", rep.sim_latency_cycles, 99,
                        "cycles", "virtual-clock turnaround");

  report.add("snapshot.checkpoint_us", span_mean(kSpanCheckpoint), "us",
             "mean per save_profiled + encode_delta");
  report.add("snapshot.checkpoint_bytes",
             open ? counter("checkpoint_bytes") : 0.0, "bytes",
             "mean emitted checkpoint bytes (farm)");
  report.add("snapshot.delta_ratio",
             open ? ratio(counter("checkpoint_bytes"),
                          counter("checkpoint_full_bytes"))
                  : 0.0,
             "ratio", "emitted / full checkpoint bytes (farm)");

  report.add("net.encode_us", span_mean(kSpanEncode), "us",
             "mean per net::encode");
  report.add("net.decode_us", span_mean(kSpanDecode), "us",
             "mean per decode_frame + decode_payload");
  report.add("net.bytes_per_job",
             ratio(static_cast<double>(all.wire_bytes),
                   static_cast<double>(all.jobs)),
             "bytes", "frames per job round trip");
  report.add("daemon.client_blocked_us",
             hub ? rep.counters.at("client_blocked_us") / jobs : 0.0, "us",
             "per job inside HubClient::submit/collect");
  report.add("daemon.jobs_requeued",
             hub ? rep.counters.at("hub.jobs_requeued") : 0.0, "count",
             "hub.jobs_requeued");
  double config_ratio = 0.0;
  if (hub) {
    const double local_cpj =
        local_config_cycles_per_job(build_stream(def, seed));
    config_ratio = ratio(ratio(static_cast<double>(rep.sim.config_cycles),
                               static_cast<double>(rep.completed)),
                         local_cpj);
  }
  report.add("daemon.sim_config_ratio", config_ratio, "ratio",
             "hub config cycles/job over the in-process farm's, same stream");
  report.add("gen.late_jobs", static_cast<double>(rep.late_jobs), "count",
             "jobs submitted after their due tick");

  std::vector<double> untraced_jps;
  for (const auto& r : reps) {
    untraced_jps.push_back(ratio(static_cast<double>(r.completed), r.serve_s));
  }
  std::vector<double> traced_jps;
  for (const auto& t : traces) {
    traced_jps.push_back(
        ratio(static_cast<double>(t.completed), t.serve_us() / 1e6));
  }
  report.add("trace.overhead_frac",
             1.0 - ratio(median(traced_jps), median(untraced_jps)), "ratio",
             "1 - traced / untraced jobs_per_s");
  report.add("trace.uncovered_frac", ratio(uncovered, all.wall_us), "ratio",
             "traced wall time outside every span");
  const double untraced_cycles =
      static_cast<double>(rep.sim.config_cycles + rep.sim.exec_cycles);
  const double traced_cycles =
      static_cast<double>(first.config_cycles + first.exec_cycles);
  report.add("trace.sim_cycles_delta_frac",
             ratio(traced_cycles - untraced_cycles, untraced_cycles), "ratio",
             "(traced - untraced) config+exec cycles / untraced");
}

int run(const Args& args) {
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) usage("unknown workload " + args.workload);

  std::cout << "# perfbench workload=" << def->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "# host cpu=\"" << cpu_model()
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" <<
#if defined(__clang__)
      "clang "
#elif defined(__GNUC__)
      "gcc "
#endif
            << __VERSION__ << "\" build=" << PERFBENCH_BUILD_TYPE
            << " simd=" << vlsip::simd::level_name()
            << " commit=" << args.commit << "\n";
  if (def->one_cpu) {
    std::cout << "# every repetition runs pinned to one CPU\n";
  }

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const int min_reps = args.trace ? 1 : kMinReps;

  // Reference outputs, untimed (build_reference): the run's one stream,
  // or each stream's just before its first repetition. That time does
  // not count against the budget.
  double reference_s = 0;
  std::size_t reference_jobs = 0;
  const auto reference_for = [&](int rep) {
    const auto t = Clock::now();
    Reference ref = build_reference(*def, stream_seed(*def, args.seed, rep));
    reference_s += elapsed_s(t);
    reference_jobs += ref.size();
    return ref;
  };
  const Reference first_reference = reference_for(0);

  // Open-loop repetitions have a fixed count, their schedules being a
  // fixed length; the others repeat until the budget is spent.
  int planned_reps = 0;
  if (def->drive == Drive::kOpen) {
    const double rep_s =
        static_cast<double>(build_stream(*def, stream_seed(*def, args.seed, 0))
                                .jobs.back()
                                .arrival) /
        1e6;
    planned_reps = std::max(
        min_reps, static_cast<int>(std::lround(untraced_budget / rep_s)));
  }

  const auto steal_before = cpu_steal_ticks();
  double measured_s = 0;  // repetitions and replays, without references
  std::vector<RepResult> reps;
  bool repeatable = true;
  const bool rss_reset = reset_peak_rss();
  const auto more_reps = [&] {
    const int done = static_cast<int>(reps.size());
    if (planned_reps > 0) return done < planned_reps;
    return done < min_reps || measured_s < untraced_budget;
  };
  while (more_reps()) {
    const int rep = static_cast<int>(reps.size());
    Reference own;
    if (def->stream_per_rep && rep > 0) own = reference_for(rep);
    const Reference& reference = own.empty() ? first_reference : own;
    const auto t_rep = Clock::now();
    // Each repetition in its own child process (child.hpp).
    reps.push_back(in_child<RepResult>([&] {
      if (def->one_cpu && !pin_to_one_cpu()) {
        throw std::runtime_error("cannot pin the repetition to one CPU");
      }
      reset_peak_rss();
      RepResult r = run_rep(*def, stream_seed(*def, args.seed, rep), reference,
                            args.sock_dir, rep);
      r.peak_rss_mb = peak_rss_mb();
      return r;
    }));
    measured_s += elapsed_s(t_rep);
    if (def->drive == Drive::kLocal && !(reps.back().sim == reps.front().sim)) {
      repeatable = false;
      std::cout << "# ERROR: repetition " << rep
                << " simulated different cycles than repetition 0\n";
    }
  }
  std::vector<TraceResult> traces;
  if (args.trace) {
    while (traces.empty() || measured_s < args.seconds) {
      const auto t_replay = Clock::now();
      traces.push_back(in_child<TraceResult>([&] {
        return replay(*def, stream_seed(*def, args.seed, 0), first_reference);
      }));
      measured_s += elapsed_s(t_replay);
      // The local replay serves in the farm's order on one chip, so it
      // must simulate exactly what the farm did; if not, the farm has
      // changed under it and the split measures a different program.
      const TraceResult& t = traces.back();
      if (def->drive == Drive::kLocal &&
          (t.config_cycles != reps.front().sim.config_cycles ||
           t.exec_cycles != reps.front().sim.exec_cycles)) {
        repeatable = false;
        std::cout << "# ERROR: the traced replay simulated different cycles "
                     "than the farm\n";
      }
    }
  }
  std::cout << "# reference outputs for " << reference_jobs << " jobs in "
            << reference_s << " s (untimed)\n";
  // Other guests on the host take CPU time from this machine; the hub
  // path, which hands every job across several threads, slows first.
  const auto steal_after = cpu_steal_ticks();
  std::cout << "# host cpu time stolen by the hypervisor during the run: "
            << 100.0 * ratio(steal_after.first - steal_before.first,
                             steal_after.second - steal_before.second)
            << "%\n";

  FailureTally tally;
  for (const auto& r : reps) tally.merge(r.tally);
  for (const auto& t : traces) tally.merge(t.tally);

  Report report;
  if (args.trace) {
    per_layer(*def, stream_seed(*def, args.seed, 0), reps, traces, report,
              std::cout);
  } else {
    end_to_end(*def, reps,
               rss_reset ? "peak RSS of each repetition's process, from the "
                           "start of its set-up"
                         : "peak RSS of each repetition's process (high-water "
                           "mark not resettable, so from the fork)",
               report);
  }
  report.print_text(std::cout);
  std::cout << "# attempted=" << tally.attempted << " failed=" << tally.failed
            << " failed_frac=" << tally.failed_frac()
            << " sim_repeatable=" << (repeatable ? "yes" : "no") << "\n";
  for (const auto& e : tally.examples) std::cout << "# failure: " << e << "\n";

  const bool correct = tally.failed == 0 && repeatable;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << report.metrics_json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
