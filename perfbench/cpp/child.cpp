#include "child.hpp"

#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <exception>
#include <stdexcept>

namespace perfbench {

void PipeOut::bytes(const void* data, std::size_t n) {
  if (n > 0 && std::fwrite(data, 1, n, file_) != n) {
    throw std::runtime_error("pipe write failed");
  }
}

void PipeOut::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void PipeOut::f64(double v) { bytes(&v, sizeof v); }

void PipeOut::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void PipeOut::f64s(const std::vector<double>& v) {
  u64(v.size());
  bytes(v.data(), v.size() * sizeof(double));
}

void PipeOut::counters(const std::map<std::string, double>& m) {
  u64(m.size());
  for (const auto& [name, value] : m) {
    str(name);
    f64(value);
  }
}

void PipeIn::bytes(void* data, std::size_t n) {
  if (n > 0 && std::fread(data, 1, n, file_) != n) {
    throw std::runtime_error("pipe ended early");
  }
}

std::uint64_t PipeIn::u64() {
  std::uint64_t v = 0;
  bytes(&v, sizeof v);
  return v;
}

double PipeIn::f64() {
  double v = 0;
  bytes(&v, sizeof v);
  return v;
}

std::string PipeIn::str() {
  std::string s(u64(), '\0');
  bytes(s.data(), s.size());
  return s;
}

std::vector<double> PipeIn::f64s() {
  std::vector<double> v(u64());
  bytes(v.data(), v.size() * sizeof(double));
  return v;
}

std::map<std::string, double> PipeIn::counters() {
  std::map<std::string, double> m;
  for (std::uint64_t n = u64(); n > 0; --n) {
    std::string name = str();
    m[name] = f64();
  }
  return m;
}

void run_in_child(const std::function<void(PipeOut&)>& child,
                  const std::function<void(PipeIn&)>& parent) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);  // nothing buffered is printed twice
  const pid_t parent_pid = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // A child never outlives the benchmark, however the parent ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent_pid) ::_exit(1);
    ::close(fds[0]);
    int code = 0;
    try {
      std::FILE* file = ::fdopen(fds[1], "wb");
      if (file == nullptr) throw std::runtime_error("fdopen failed");
      PipeOut out(file);
      child(out);
      if (std::fclose(file) != 0) throw std::runtime_error("pipe close failed");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: child process: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string error;
  if (std::FILE* file = ::fdopen(fds[0], "rb")) {
    try {
      PipeIn in(file);
      parent(in);
    } catch (const std::exception& e) {
      error = e.what();
    }
    std::fclose(file);
  } else {
    ::close(fds[0]);
    error = "fdopen failed";
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a child process failed");
  }
  if (!error.empty()) throw std::runtime_error(error);
}

}  // namespace perfbench
