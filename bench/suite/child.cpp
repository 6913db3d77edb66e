#include "child.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <sstream>

namespace bench_suite {

namespace {

// A wedged repetition is killed well inside the benchmark's 180 s budget.
constexpr unsigned kChildTimeoutSeconds = 150;

bool write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_all(int fd) {
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return text;
    text.append(buf, static_cast<std::size_t>(n));
  }
}

// Report format: one "key value" line per number, then "end". A body error
// is a single "error <message>" line.
[[noreturn]] void child_main(int fd, const std::function<Values()>& body) {
  ::alarm(kChildTimeoutSeconds);
  std::ostringstream out;
  int code = 0;
  try {
    out.precision(17);
    for (const auto& [key, value] : body()) out << key << ' ' << value << '\n';
    out << "end\n";
  } catch (const std::exception& e) {
    out.str("");
    out << "error " << e.what() << '\n';
    code = 1;
  }
  if (!write_all(fd, out.str())) code = 1;
  ::_exit(code);
}

}  // namespace

ChildResult run_in_child(const std::function<Values()>& body) {
  ChildResult result;
  int fds[2];
  if (::pipe(fds) != 0) {
    result.error = "pipe failed";
    return result;
  }
  std::fflush(nullptr);
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    result.error = "fork failed";
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fds[1], body);
  }
  ::close(fds[1]);
  const std::string report = read_all(fds[0]);
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::istringstream in(report);
  std::string key;
  bool complete = false;
  while (in >> key) {
    if (key == "end") {
      complete = true;
      break;
    }
    if (key == "error") {
      std::getline(in >> std::ws, result.error);
      if (result.error.empty()) result.error = "child body failed";
      break;
    }
    double value = 0;
    in >> value;
    result.values[key] = value;
  }
  if (WIFSIGNALED(status)) {
    result.error = "child killed by signal " + std::to_string(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    if (result.error.empty()) result.error = "child exited with status " + std::to_string(WEXITSTATUS(status));
  } else if (!complete) {
    result.error = "child report incomplete";
  }
  result.ok = result.error.empty();
  return result;
}

}  // namespace bench_suite
