// Runs a piece of the benchmark in a forked child process and carries
// its result back over a pipe.
//
// Each repetition, replay and the reference computation runs in its own
// child, so every one starts from the same small parent heap, as a
// freshly started serving process would, instead of from whatever the
// previous repetitions left. Within one process, a fresh deterministic
// farm per round served @preset:churn at 5.7k jobs/s in the first round
// and 2.8k-3.6k from the fourth on, while one farm kept serving the
// same rounds at 4.4k-5.4k: the slowdown came from the benchmark
// starting farm after farm in one process, not from anything a serving
// process does. The allocator keeps its defaults throughout.
//
// The parent must have no other threads when it forks. The child may
// start threads; its work joins them before it returns.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The writing end of the pipe: every number and length a native u64
/// or double, every string its bytes.
class PipeOut {
 public:
  explicit PipeOut(std::FILE* file) : file_(file) {}

  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);
  void f64s(const std::vector<double>& v);
  void counters(const std::map<std::string, double>& m);

 private:
  void bytes(const void* data, std::size_t n);
  std::FILE* file_;
};

/// The reading end. Reads through the stream's small buffer, so the
/// parent's heap gets only the values themselves. Throws when the pipe
/// ends early.
class PipeIn {
 public:
  explicit PipeIn(std::FILE* file) : file_(file) {}

  std::uint64_t u64();
  double f64();
  std::string str();
  std::vector<double> f64s();
  std::map<std::string, double> counters();

 private:
  void bytes(void* data, std::size_t n);
  std::FILE* file_;
};

/// Forks; the child runs `child` (which writes its result) and exits,
/// the parent runs `parent` (which reads it) and then waits for the
/// child. Throws if the child fails (it prints why on stderr), if the
/// pipe ends early, or if fork or pipe fail.
void run_in_child(const std::function<void(PipeOut&)>& child,
                  const std::function<void(PipeIn&)>& parent);

/// `work()` in a child; its result crosses the pipe with the
/// write(PipeOut&, const T&) and read(PipeIn&, T&) found for T.
template <typename T, typename F>
T in_child(F work) {
  T result{};
  run_in_child([&](PipeOut& out) { write(out, work()); },
               [&](PipeIn& in) { read(in, result); });
  return result;
}

}  // namespace perfbench
