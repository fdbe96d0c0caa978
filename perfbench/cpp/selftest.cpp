// Checks of the benchmark's own arithmetic: nearest-rank percentiles,
// the ten-samples-beyond rule for tail percentiles, medians, failure
// counting (Ledger / FailureTally), and results crossing the pipe from
// a child process (child.hpp). Exits non-zero on the first
// failed check; run.py runs it before every benchmark run.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "drive.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so percentile() must sort
}

void test_nearest_rank() {
  using perfbench::nearest_rank;
  expect(nearest_rank(1, 50) == 1, "rank of p50 of 1 sample");
  expect(nearest_rank(10, 50) == 5, "rank of p50 of 10 samples");
  expect(nearest_rank(11, 50) == 6, "rank of p50 of 11 samples");
  expect(nearest_rank(100, 99) == 99, "rank of p99 of 100 samples");
  expect(nearest_rank(101, 99) == 100, "rank of p99 of 101: ceil(99.99)");
  expect(nearest_rank(1000, 99.9) == 999, "rank of p99.9 of 1000 samples");
  expect(nearest_rank(7, 100) == 7, "p100 is the maximum");
  expect(throws([] { nearest_rank(0, 50); }), "no samples");
  expect(throws([] { nearest_rank(10, 0); }), "p0 is not a rank");
  expect(throws([] { nearest_rank(10, 101); }), "p101 is not a rank");

  auto v = one_to(10);
  expect(perfbench::percentile(v, 50).value == 5, "p50 of 1..10 is 5");
  auto w = one_to(4);
  expect(perfbench::percentile(w, 25).value == 1, "p25 of 1..4 is 1");
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  // p99 needs n - ceil(0.99 n) >= 10, first true at n = 1000.
  expect(samples_beyond(999, 99) == 9, "999 samples: 9 beyond p99");
  expect(samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  auto short_tail = one_to(999);
  expect(throws([&] { perfbench::percentile(short_tail, 99); }),
         "p99 of 999 samples is refused");
  auto enough = one_to(1000);
  const perfbench::Percentile p = perfbench::percentile(enough, 99);
  expect(p.value == 990 && p.samples == 1000 && p.beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  auto small = one_to(3);
  expect(perfbench::percentile(small, 50).value == 2,
         "a median needs no tail");
}

void test_median() {
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  expect(throws([] { perfbench::median({}); }), "median of nothing");
}

vlsip::scaling::JobOutcome outcome(const std::string& name,
                                   vlsip::scaling::JobStatus status,
                                   std::int64_t out) {
  vlsip::scaling::JobOutcome o;
  o.name = name;
  o.status = status;
  o.config_cycles = 10;
  o.exec_cycles = 5;
  o.outputs["y"] = {vlsip::arch::make_word_i(out)};
  return o;
}

void test_failure_counting() {
  using vlsip::scaling::JobStatus;
  vlsip::workload::JobStream stream;
  perfbench::Reference reference;
  for (const char* name : {"a#0", "b#1", "c#2", "d#3", "e#4"}) {
    vlsip::workload::TimedJob timed;
    timed.job.name = name;
    stream.jobs.push_back(timed);
    reference[name]["y"] = {vlsip::arch::make_word_i(7)};
  }

  perfbench::Ledger ledger(stream, reference);
  expect(ledger.add(outcome("a#0", JobStatus::kCompleted, 7)) == 0,
         "a matching result answers its job");
  expect(ledger.add(outcome("b#1", JobStatus::kCompleted, 8)) == 1,
         "a wrong result still answers its job");
  ledger.add(outcome("c#2", JobStatus::kTimedOut, 7));
  expect(ledger.add(outcome("a#0", JobStatus::kCompleted, 7)) ==
             perfbench::Ledger::npos,
         "a second answer answers nothing");
  expect(ledger.add(outcome("zz#9", JobStatus::kCompleted, 7)) ==
             perfbench::Ledger::npos,
         "an unknown name answers nothing");
  ledger.add(outcome("e#4", JobStatus::kCompleted, 7));
  ledger.close();  // d#3 never answered

  const perfbench::FailureTally& t = ledger.tally();
  // a, e ok; b wrong outputs; c timed out; duplicate a; unknown zz; d missing.
  expect(t.attempted == 7, "attempted counts 5 jobs + 2 stray results, got " +
                               std::to_string(t.attempted));
  expect(t.failed == 5, "failed counts b, c, dup a, zz, d, got " +
                            std::to_string(t.failed));
  expect(ledger.completed() == 3, "a, b and e completed");
  expect(ledger.config_cycles() == 60 && ledger.exec_cycles() == 30,
         "cycles count every result");
  expect(t.failed_frac() == 5.0 / 7.0, "failed_frac = failed / attempted");

  perfbench::FailureTally clean;
  clean.ok();
  clean.ok();
  expect(clean.failed_frac() == 0.0, "no failures, failed_frac 0");
  perfbench::FailureTally none;
  expect(none.failed_frac() == 1.0, "nothing attempted counts as failure");
  clean.merge(t);
  expect(clean.attempted == 9 && clean.failed == 5, "tallies merge");
}

void test_child_results() {
  perfbench::RepResult sent;
  sent.setup_s = 0.25;
  sent.serve_s = 1.5;
  sent.peak_rss_mb = 48.5;
  sent.jobs = 3;
  sent.completed = 2;
  sent.tally.ok();
  sent.tally.fail("x#1 did not complete");
  sent.latency_us = {1.5, 2.5, 3.5};
  sent.sim_wait_cycles = {7};
  sent.sim = {11, 12, 13, 14};
  sent.late_jobs = 4;
  sent.counters["ap.config.hits"] = 9;
  const auto got = perfbench::in_child<perfbench::RepResult>([&] { return sent; });
  expect(got.setup_s == 0.25 && got.serve_s == 1.5 && got.peak_rss_mb == 48.5,
         "times cross the pipe");
  expect(got.jobs == 3 && got.completed == 2 && got.late_jobs == 4,
         "counts cross the pipe");
  expect(got.tally.attempted == 2 && got.tally.failed == 1 &&
             got.tally.examples == sent.tally.examples,
         "the tally crosses the pipe");
  expect(got.latency_us == sent.latency_us && got.wait_us.empty() &&
             got.sim_wait_cycles == sent.sim_wait_cycles,
         "sample series cross the pipe");
  expect(got.sim == sent.sim && got.counters == sent.counters,
         "fingerprint and counters cross the pipe");
  expect(throws([] {
           perfbench::in_child<perfbench::RepResult>(
               []() -> perfbench::RepResult {
                 throw std::runtime_error("expected: a failing child");
               });
         }),
         "a failing child fails the parent");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_tail_rule();
  test_median();
  test_failure_counting();
  test_child_results();
  if (failures != 0) return 1;
  std::printf("selftest ok\n");
  return 0;
}
