#include "dist/shard_coordinator.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/invariants.hpp"
#include "dist/shard_wire.hpp"
#include "dist/shard_worker.hpp"

namespace idonly {

namespace {

struct Worker {
  std::uint32_t shard = 0;
  pid_t pid = -1;
  int fd = -1;
  bool reaped = false;
  int exit_status = 0;
};

/// Owns the fleet: closes sockets, SIGKILLs and reaps whatever is still
/// alive when the run leaves scope — no path may leak a child.
struct Fleet {
  std::vector<Worker> workers;

  ~Fleet() {
    for (Worker& w : workers) {
      if (w.fd >= 0) ::close(w.fd);
      w.fd = -1;
    }
    kill_all();
    reap_all();
  }

  void kill_all() {
    for (const Worker& w : workers) {
      if (!w.reaped && w.pid > 0) ::kill(w.pid, SIGKILL);
    }
  }

  void reap_all() {
    for (Worker& w : workers) {
      if (w.reaped || w.pid <= 0) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, 0) == w.pid) {
        w.exit_status = status;
        w.reaped = true;
      }
    }
  }
};

std::string describe_exit(int status) {
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "killed by signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

DistRun infra_failure(std::string message) {
  DistRun run;
  run.infra_ok = false;
  run.infra_error = std::move(message);
  run.script.all_satisfied = false;
  run.script.summary = "dist: " + run.infra_error;
  return run;
}

std::string worker_name(const Worker& worker) {
  return "shard worker " + std::to_string(worker.shard) + " (pid " + std::to_string(worker.pid) +
         ")";
}

/// True when `worker` ended on its own mid-run: not by the coordinator's
/// SIGKILL, not with kWorkerFailedExit (the exit after a kError it sent),
/// and not with the clean exit after kFinish.
bool died_on_its_own(const Worker& worker) {
  if (!worker.reaped) return false;
  const int status = worker.exit_status;
  if (WIFSIGNALED(status)) return WTERMSIG(status) != SIGKILL;
  return !WIFEXITED(status) ||
         (WEXITSTATUS(status) != 0 && WEXITSTATUS(status) != kWorkerFailedExit);
}

/// Ends the run on a failure the coordinator observed on `worker`'s control
/// socket: `status` kEof (it closed), kTimeout (wedged), kError (socket
/// error), or kOk with `report` saying what was wrong with its frame (its
/// kError text, a protocol break). The whole fleet is killed and reaped
/// FIRST; the run is then blamed on the worker that died on its own, so the
/// message does not depend on which socket spoke first — a survivor's kError
/// about a dead mesh peer can reach the coordinator before the victim's
/// control EOF. What was observed, when it is not that death, is appended.
DistRun fleet_failure(Fleet& fleet, const Worker& worker, RecvStatus status,
                      const std::string& when, std::string report = {}) {
  fleet.kill_all();
  fleet.reap_all();
  const auto died = [&](const Worker& w) {
    return worker_name(w) + " died " + when + " (" + describe_exit(w.exit_status) + ")";
  };
  if (status == RecvStatus::kEof) {
    report = died(worker);
  } else if (status == RecvStatus::kTimeout) {
    report = worker_name(worker) + " wedged " + when + " (no reply within the wedge timeout)";
  } else if (status == RecvStatus::kError) {
    report = worker_name(worker) + " socket error " + when;
  }
  const auto cause = std::find_if(fleet.workers.begin(), fleet.workers.end(), died_on_its_own);
  if (cause == fleet.workers.end()) return infra_failure(std::move(report));
  const std::string blame = died(*cause);
  return infra_failure(blame == report ? blame : blame + "; " + report);
}

/// fleet_failure for a worker's kError frame.
DistRun reported_failure(Fleet& fleet, const Worker& worker, std::span<const std::byte> payload,
                         const std::string& when) {
  ByteReader r(payload);
  return fleet_failure(fleet, worker, RecvStatus::kOk, when,
                       "shard worker " + std::to_string(worker.shard) + " failed: " + r.str());
}

/// fleet_failure for a frame that breaks the round protocol.
DistRun protocol_failure(Fleet& fleet, const Worker& worker, const std::string& when) {
  return fleet_failure(fleet, worker, RecvStatus::kOk, when,
                       "shard worker " + std::to_string(worker.shard) + " broke protocol " +
                           when);
}

}  // namespace

DistRun run_dist(const DistConfig& config) {
  if (config.script_text.empty()) throw std::invalid_argument("run_dist: empty script text");
  const std::uint32_t shards = config.shards == 0 ? 1 : config.shards;

  auto parsed = parse_script(config.script_text);
  if (const auto* err = std::get_if<ParseError>(&parsed)) {
    return infra_failure("script parse error at line " + std::to_string(err->line) + ": " +
                        err->message);
  }
  const ScenarioScript script = std::get<ScenarioScript>(std::move(parsed));
  const Scenario scenario = make_scenario(script.config);

  // ---------------------------------------------------------- spawn fleet --
  // Every socket — control pairs AND the mesh matrix — is created BEFORE the
  // first fork, so each child keeps exactly the ends it owns and closes the
  // rest: a uniform rule instead of "close earlier siblings'". mesh_fd[s][t]
  // is shard s's end of the (s,t) pair; each fd appears in the matrix once.
  // One shard has no pairs: its worker's mesh has zero peers.
  Fleet fleet;
  fleet.workers.resize(shards);
  std::vector<std::array<int, 2>> control(shards, {-1, -1});
  std::vector<std::vector<int>> mesh_fd(shards, std::vector<int>(shards, -1));
  const auto close_prefork = [&] {
    for (auto& sv : control) {
      for (int& fd : sv) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
    for (auto& row : mesh_fd) {
      for (int& fd : row) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };
  for (std::uint32_t s = 0; s < shards; ++s) {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      close_prefork();
      return infra_failure("socketpair failed for shard " + std::to_string(s));
    }
    control[s] = {sv[0], sv[1]};  // [0] = coordinator end, [1] = worker end
  }
  for (std::uint32_t a = 0; a < shards; ++a) {
    for (std::uint32_t b = a + 1; b < shards; ++b) {
      int sv[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        close_prefork();
        return infra_failure("mesh socketpair failed for shards " + std::to_string(a) + "/" +
                            std::to_string(b));
      }
      // Ask for buffers big enough to hold a whole round's slab in flight:
      // a post then completes without the peer's cooperation and the collect
      // side finds complete frames instead of ping-ponging the transfer 200KB
      // at a time. The kernel clamps the request to net.core.wmem_max — at
      // the stock ~208KB limit this is a no-op and the mesh's chunked path
      // still works, just with more wakeups.
      constexpr int kMeshBufBytes = 4 << 20;
      for (const int fd : sv) {
        (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kMeshBufBytes, sizeof kMeshBufBytes);
        (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kMeshBufBytes, sizeof kMeshBufBytes);
      }
      mesh_fd[a][b] = sv[0];
      mesh_fd[b][a] = sv[1];
    }
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      close_prefork();
      return infra_failure("fork failed for shard " + std::to_string(s));
    }
    if (pid == 0) {
      // Child: keep control[s][1] and mesh row s, close everything else so
      // a dead coordinator or peer reads EOF instead of hanging.
      fleet.workers.clear();  // the child must not kill/reap its siblings
      for (std::uint32_t t = 0; t < shards; ++t) {
        if (control[t][0] >= 0) ::close(control[t][0]);
        if (t != s && control[t][1] >= 0) ::close(control[t][1]);
        if (t != s) {
          for (int fd : mesh_fd[t]) {
            if (fd >= 0) ::close(fd);
          }
        }
      }
      // The child already holds the script and options: it builds its slice
      // from them, with no start-up exchange.
      ShardInit init;
      init.shard = s;
      init.shards = shards;
      init.want_trace = config.want_trace;
      init.crash_at_round = s == config.crash_shard ? config.crash_at_round : 0;
      init.script_text = config.script_text;
      ::_exit(run_worker_loop(init, control[s][1], std::move(mesh_fd[s])));
    }
    fleet.workers[s] = Worker{s, pid, -1, false, 0};
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    fleet.workers[s].fd = control[s][0];
    control[s][0] = -1;
    ::close(control[s][1]);
    control[s][1] = -1;
  }
  for (auto& row : mesh_fd) {
    for (int& fd : row) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  // ----------------------------------------------------------- round loop --
  // The harness's round loop (harness/script.hpp, "Round-loop protocols")
  // with worker statuses standing in for direct process inspection, and the
  // coordinator's own ChurnDriver tracking the expectation set. The
  // discard-everything callbacks keep its id stream aligned with the
  // workers'.
  ChurnDriver churn(script, scenario);
  const ChurnDriver::JoinerFactory null_factory = [](NodeId, std::size_t) {
    return std::unique_ptr<Process>{};
  };
  const ChurnDriver::AddFn null_add = [](std::unique_ptr<Process>) {};
  const ChurnDriver::RemoveFn null_remove = [](NodeId) {};

  std::map<NodeId, bool> done_status;
  const auto done = [&](NodeId id) {
    const auto it = done_status.find(id);
    return it != done_status.end() && it->second;
  };

  Round round = 0;
  std::optional<DistRun> failed;

  // A send fails only to a worker that has exited. Its last words — a
  // kError (a construction failure included) or EOF — are already on its
  // socket, so the harvest that always follows a send reads and reports
  // them.
  const auto broadcast_step = [&](Round r) {
    // The coordinator's churn stream must advance once per STEPPED round —
    // the workers apply the same events inside begin_round().
    churn.apply(r, null_factory, null_add, null_remove);
    for (Worker& worker : fleet.workers) (void)send_frame(worker.fd, ShardMsgType::kStep, {});
  };

  // One full round of kStatus replies, in worker order. Statuses carry no
  // round number: the control sockets deliver in order and every kStep is
  // answered by exactly one kStatus, so the i-th status from a worker IS its
  // round-i status even when the loop runs a round ahead.
  const auto harvest_statuses = [&](Round r) -> bool {
    const std::string when = "in round " + std::to_string(r);
    for (Worker& worker : fleet.workers) {
      ShardMsgType type{};
      std::vector<std::byte> payload;
      const RecvStatus status = recv_frame(worker.fd, type, payload, config.wedge_timeout_ms);
      if (status != RecvStatus::kOk) {
        failed = fleet_failure(fleet, worker, status, when);
        return false;
      }
      if (type == ShardMsgType::kError) {
        failed = reported_failure(fleet, worker, payload, when);
        return false;
      }
      const auto worker_status =
          type == ShardMsgType::kStatus ? decode_status(payload) : std::nullopt;
      if (!worker_status.has_value()) {
        failed = protocol_failure(fleet, worker, when);
        return false;
      }
      for (const auto& [id, done] : worker_status->done) done_status[id] = done;
    }
    round = r;
    return true;
  };

  // The coordinator is control-plane only. When the round count is
  // data-independent (rb, totalorder) it keeps up to TWO rounds stepped but
  // unharvested, so a worker can post round r+1's slabs while its slowest
  // peer still merges round r — the double-buffering the mesh staging was
  // built for. A protocol that stops early keeps lookahead 1: its early exit
  // reads every round's statuses before deciding to step again.
  const LoopLimits limits = loop_limits(script);
  const Round lookahead = limits.stops_early ? 1 : 2;
  Round stepped = 0;
  while (round < limits.budget && !loop_finished(script, churn.tracked(), done)) {
    while (stepped < std::min<Round>(round + lookahead, limits.budget)) {
      stepped += 1;
      broadcast_step(stepped);
    }
    if (!harvest_statuses(round + 1)) return *std::move(failed);
  }

  // -------------------------------------------------------------- results --
  const std::string finalizing = "while finalizing";
  std::vector<ShardResult> results;
  for (Worker& worker : fleet.workers) (void)send_frame(worker.fd, ShardMsgType::kFinish, {});
  for (Worker& worker : fleet.workers) {
    ShardMsgType type{};
    std::vector<std::byte> payload;
    const RecvStatus status = recv_frame(worker.fd, type, payload, config.wedge_timeout_ms);
    if (status != RecvStatus::kOk) return fleet_failure(fleet, worker, status, finalizing);
    auto result = type == ShardMsgType::kResult ? decode_result(payload) : std::nullopt;
    if (!result.has_value()) {
      return fleet_failure(fleet, worker, RecvStatus::kOk, finalizing,
                           "shard worker " + std::to_string(worker.shard) +
                               " sent a malformed result");
    }
    results.push_back(*std::move(result));
  }
  for (Worker& worker : fleet.workers) {
    int wait_status = 0;
    if (::waitpid(worker.pid, &wait_status, 0) == worker.pid) {
      worker.exit_status = wait_status;
      worker.reaped = true;
    }
    if (!WIFEXITED(worker.exit_status) || WEXITSTATUS(worker.exit_status) != 0) {
      fleet.kill_all();
      return infra_failure("shard worker " + std::to_string(worker.shard) +
                          " finished with " + describe_exit(worker.exit_status));
    }
  }

  // ---------------------------------------------------------------- merge --
  DistRun run;
  Metrics metrics;
  ChaosCounters chaos;
  bool has_chaos = false;
  FaultCounters wire_faults;
  std::map<NodeId, NodeOutcome> nodes;
  if (config.want_trace) run.trace = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  for (std::size_t w = 0; w < results.size(); ++w) {
    ShardResult& result = results[w];
    metrics.messages += result.metrics.messages;
    metrics.fanout += result.metrics.fanout;
    metrics.overlap += result.metrics.overlap;
    metrics.rounds_executed = std::max(metrics.rounds_executed, result.metrics.rounds_executed);
    for (const auto& [id, done_round] : result.metrics.done_round) {
      metrics.done_round.emplace(id, done_round);
    }
    if (result.has_chaos) {
      has_chaos = true;
      if (chaos.per_phase.size() < result.chaos.per_phase.size()) {
        chaos.per_phase.resize(result.chaos.per_phase.size());
      }
      for (std::size_t p = 0; p < result.chaos.per_phase.size(); ++p) {
        chaos.per_phase[p] += result.chaos.per_phase[p];
      }
    }
    wire_faults += result.wire_faults;
    for (auto& [id, node] : result.nodes) nodes[id] = std::move(node);
    if (run.trace == nullptr) continue;
    for (ShardResult::Ring& ring : result.rings) {
      // Workers own disjoint nodes, so a ring another result already holds
      // means a worker reported a node it does not own.
      try {
        run.trace->absorb_ring(ring.node, std::move(ring.records), ring.next_seq, ring.evicted);
      } catch (const std::invalid_argument&) {
        return infra_failure(worker_name(fleet.workers[w]) + " sent a trace ring for node " +
                             std::to_string(ring.node) + ", which another shard already sent");
      }
    }
  }

  run.metrics = metrics;

  // The monitor watches the same initial correct nodes as run_script's, fed
  // from their end states (leavers included) instead of online. Decisions
  // are final, so the verdict matches; only the online-only "decided twice"
  // check and the order in which violations are listed can differ.
  const std::unique_ptr<InvariantMonitor> monitor = make_loop_monitor(script, scenario);
  if (monitor != nullptr) {
    for (NodeId id : scenario.correct_ids) {
      const auto it = nodes.find(id);
      if (it == nodes.end() || !it->second.output.has_value()) continue;
      ProtocolEvent event;
      event.type = ProtocolEvent::Type::kDecided;
      event.node = id;
      event.round = round;
      event.value = *it->second.output;
      monitor->on_event(event);
    }
    monitor->finish(round);
  }
  run.script = judge_loop_run(script, scenario, churn.tracked(), nodes, monitor.get(), round,
                              metrics, has_chaos ? &chaos : nullptr, &wire_faults);
  return run;
}

}  // namespace idonly
