// One measured repetition in its own forked child.
//
// Forking per repetition gives every run a fresh heap and lets wall time,
// CPU time and peak RSS come from the parent's wait4: CPU and ru_maxrss
// then include the descendants the child reaps (a dist run's workers).
#pragma once

#include <functional>
#include <map>
#include <string>

namespace bench_suite {

/// What a child body reports: named numbers, sent back over a pipe.
using Values = std::map<std::string, double>;

struct ChildResult {
  bool ok = false;          ///< exited 0 and delivered a complete report
  std::string error;        ///< why not, when !ok
  double wall_s = 0;        ///< fork to reaped, seen by the parent
  double cpu_s = 0;         ///< user + system time of the child tree
  double peak_rss_mb = 0;   ///< ru_maxrss: the largest process of the tree
  Values values;            ///< the body's report
};

/// Fork, run `body` in the child, and reap it. The parent must not own
/// threads when it calls this. A body that throws, crashes or runs longer
/// than 150 s yields ok == false.
[[nodiscard]] ChildResult run_in_child(const std::function<Values()>& body);

}  // namespace bench_suite
