// Scenario script DSL: a tiny line-oriented language describing a run —
// protocol, sizes, adversary, seed, expectations — so experiments and bug
// reports are a text file instead of a C++ program.
//
//   # seven nodes, two two-faced Byzantine, mixed inputs
//   protocol consensus
//   nodes 7
//   inputs 0,1
//   byzantine 2 twofaced
//   seed 42
//   max-rounds 200
//   expect termination
//   expect agreement
//   expect validity
//
// Keywords:
//   protocol  consensus | king | rb | approx | rotor | renaming | totalorder
//   nodes     <count of correct nodes>
//   inputs    <comma-separated reals, cycled over nodes>   (consensus/king/approx)
//   byzantine <count> <adversary-name>[,<adversary-name>…] (mix round-robins)
//   seed, max-rounds, iterations, crash-round              (numbers)
//   byz-source                                             (rb: Byzantine sender)
//   rb        alg1 | imbs                                  (rb: backend; default alg1)
//   chaos     <first>-<last> <fault>=<spec> ...            (one phase per line)
//   churn     <round> join=<count> | leave=<index>         (one event per line)
//   liveness  <round budget>  (bounded-termination probe, consensus)
//   expect    termination | agreement | validity | acceptance | good-round |
//             within-range | contraction | no-violations
//
// A `chaos` line declares one ChaosSchedule phase (common/chaos.hpp) active
// over the inclusive round window. Fault specs:
//   drop=<p>           phase-wide loss probability
//   dup=<p>            duplication probability
//   corrupt=<p>        one-byte corruption probability (trace-only in sims)
//   delay=<p>:<max>    jitter — probability and max extra rounds
//   partition=<a>-<b>  bidirectional partition: sorted all_ids[a..b] vs rest
//   crash=<i>:<f>-<l>  crash window — all_ids[i] is down rounds f..l
// Node references are INDICES into the scenario's sorted id list (ids are
// seed-derived, so scripts cannot name them directly); the runner
// materialises the plan once the scenario ids exist. Chaos lines are
// accepted for the consensus and totalorder protocols.
//
// A `churn` line declares one membership event. `join=<count>` adds count
// fresh correct processes before the given round executes (seed-derived
// sparse ids, inputs cycled off the script's input list); `leave=<index>`
// removes the index-th node of the sorted CORRECT id list before that round.
// Late joiners run the protocol but are excluded from expectations (the
// paper's guarantees quantify over initial participants; a joiner is load
// and membership pressure). A departed node is likewise dropped from the
// termination/agreement checks from its leave round on — a correct leave is
// a crash, so the generator budgets leaves against the n > 3f bound. Churn
// lines are accepted for the consensus and totalorder protocols.
//
// `liveness <budget>` arms the InvariantMonitor's bounded-termination probe
// (consensus runs): if no initial correct node decides within `budget`
// rounds the run records a liveness violation — fuzz campaigns catch
// wedges, not just safety breaks.
//
// parse() reports errors with line numbers; run() executes and evaluates
// every expectation. consensus, king and totalorder run their own round
// loop, defined once below ("Round-loop protocols") for both engines.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/chaos.hpp"
#include "common/invariants.hpp"
#include "common/trace.hpp"
#include "core/rb_backend.hpp"
#include "core/total_order.hpp"
#include "harness/scenario.hpp"

namespace idonly {

enum class ScriptProtocol { kConsensus, kKing, kRb, kApprox, kRotor, kRenaming, kTotalOrder };

enum class Expectation {
  kTermination,
  kAgreement,
  kValidity,
  kAcceptance,
  kGoodRound,
  kWithinRange,
  kContraction,
  kNoViolations,
};

[[nodiscard]] std::string to_string(ScriptProtocol protocol);
[[nodiscard]] std::string to_string(Expectation expectation);

/// One parsed `chaos` line. Node references are indices into the sorted
/// all_ids list; materialize_chaos_plan turns them into concrete NodeIds.
struct ChaosPhaseSpec {
  Round first_round = 1;
  Round last_round = 1;
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  double delay_probability = 0.0;
  Round delay_max_extra = 1;
  /// ids[first..second] (inclusive) form one partition side, the rest the other.
  std::optional<std::pair<std::size_t, std::size_t>> partition;
  struct CrashSpec {
    std::size_t index = 0;
    Round first = 1;
    Round last = 1;

    friend bool operator==(const CrashSpec&, const CrashSpec&) = default;
  };
  std::vector<CrashSpec> crashes;

  friend bool operator==(const ChaosPhaseSpec&, const ChaosPhaseSpec&) = default;
};

/// One parsed `churn` line: a membership event applied before `round`
/// executes. Exactly one of join_count / leave_index is meaningful.
struct ChurnEventSpec {
  Round round = 1;
  bool is_join = false;
  std::size_t join_count = 0;   ///< joins: number of fresh correct processes
  std::size_t leave_index = 0;  ///< leaves: index into the sorted correct ids

  friend bool operator==(const ChurnEventSpec&, const ChurnEventSpec&) = default;
};

struct ScenarioScript {
  ScriptProtocol protocol = ScriptProtocol::kConsensus;
  ScenarioConfig config;
  std::vector<double> inputs{0.0, 1.0};
  int iterations = 1;
  bool byz_source = false;
  /// rb protocol only: which reliable-broadcast state machine to run
  /// (core/rb_backend.hpp). kImbs needs n > 5f for its guarantees.
  RbBackendKind rb_backend = RbBackendKind::kAlg1;
  Round max_rounds = 500;
  /// Bounded-termination probe budget; 0 = probe off.
  Round liveness_budget = 0;
  std::vector<ChaosPhaseSpec> chaos_phases;
  std::vector<ChurnEventSpec> churn_events;
  std::vector<Expectation> expectations;

  friend bool operator==(const ScenarioScript&, const ScenarioScript&) = default;
};

/// Resolve index-based phase specs against the scenario's sorted id list.
/// Throws std::invalid_argument when an index is out of range.
[[nodiscard]] ChaosPlan materialize_chaos_plan(const std::vector<ChaosPhaseSpec>& specs,
                                               const std::vector<NodeId>& all_ids);

/// Membership churn during a manual round loop. Joins draw fresh sparse ids
/// from a seed-derived stream; leaves resolve indices against the INITIAL
/// sorted correct id list. tracked() is the set expectations quantify over:
/// the initial correct ids minus departures. Late joiners run the protocol
/// but carry no obligations (the paper's guarantees quantify over initial
/// participants; a joiner is load and membership pressure).
///
/// The id stream and tracked() evolution depend only on (script, scenario),
/// never on the engine — the distributed shard engine runs one ChurnDriver
/// per worker and every worker sees identical joiner ids and tracked sets.
class ChurnDriver {
 public:
  using JoinerFactory = std::function<std::unique_ptr<Process>(NodeId, std::size_t)>;
  using AddFn = std::function<void(std::unique_ptr<Process>)>;
  using RemoveFn = std::function<void(NodeId)>;

  ChurnDriver(const ScenarioScript& script, const Scenario& scenario);

  /// Apply every event scheduled for `round` (the round about to execute)
  /// through engine-agnostic callbacks. The joiner factory is invoked for
  /// EVERY join — a caller that does not own the joiner discards the
  /// process, keeping the id stream and joiner indices aligned everywhere.
  void apply(Round round, const JoinerFactory& make_joiner, const AddFn& add,
             const RemoveFn& remove);
  /// Convenience overload targeting a SyncSimulator.
  void apply(SyncSimulator& sim, Round round, const JoinerFactory& make_joiner);

  [[nodiscard]] const std::vector<NodeId>& tracked() const { return tracked_; }

 private:
  std::vector<ChurnEventSpec> events_;
  std::vector<NodeId> initial_correct_;
  std::vector<NodeId> tracked_;
  Rng rng_;
  NodeId next_id_ = 0;
  std::size_t joiners_ = 0;
};

struct ParseError {
  int line = 0;
  std::string message;
};

/// Parse the DSL; on failure returns the first error.
[[nodiscard]] std::variant<ScenarioScript, ParseError> parse_script(const std::string& text);

struct ExpectationOutcome {
  Expectation expectation;
  bool satisfied = false;
  std::string detail;
};

struct ScriptRun {
  bool all_satisfied = true;
  std::vector<ExpectationOutcome> outcomes;
  Round rounds = 0;
  std::uint64_t messages = 0;
  std::string summary;  ///< human-readable result line
  /// Chaos runs only: injected-fault accounting and observed safety
  /// violations (empty when the run was clean / chaos-free).
  std::string chaos_summary;
  std::vector<std::string> violations;
  /// Prometheus-style snapshot of the run's metrics counters. Filled by the
  /// round-loop protocols (consensus, king, totalorder — plain, chaos or
  /// churn); empty for the protocols routed through the one-call harness.
  std::string metrics_exposition;
};

/// Optional instrumentation for run_script.
struct ScriptOptions {
  /// Flight recorder (common/trace.hpp) wired through the run's engine:
  /// sends, deliveries, link verdicts (chaos runs), and protocol events are
  /// captured for the round-loop protocols — the same set that fills
  /// ScriptRun::metrics_exposition.
  std::shared_ptr<TraceRecorder> recorder;
  /// Worker threads for the round engine (net/parallel_exec.hpp). Applies
  /// to the round-loop protocols; results — including the trace — are
  /// bit-identical for every value, so this is purely a speed knob.
  unsigned threads = 1;
};

/// Execute a parsed script and evaluate its expectations.
[[nodiscard]] ScriptRun run_script(const ScenarioScript& script);
[[nodiscard]] ScriptRun run_script(const ScenarioScript& script, const ScriptOptions& options);

/// "<protocol> n=<correct>+<byzantine> seed=<s> rounds=<r> msgs=<m> — OK"
/// (or "EXPECTATION FAILED"): ScriptRun::summary, for every engine.
[[nodiscard]] std::string summary_line(const ScenarioScript& script, const ScriptRun& run);

// --------------------------------------------------- round-loop protocols --
// consensus, king and totalorder run their own round loop: the run is
// defined once by the functions below, and both engines use them —
// run_script's SyncSimulator loop and run_dist's forked ShardWorker fleet
// (dist/shard_coordinator.hpp). Each is a pure function of the script, the
// scenario and the nodes' states, so the engines agree byte for byte.
//
// The loop itself, in either engine: build every process with
// make_loop_process, prime the initial correct nodes, then per round —
// unless loop_finished — apply the round's churn (joiners from
// make_loop_joiner) and step. The verdict reads the tracked nodes' end
// states and the monitor that watched the initial correct nodes.

/// Correct process for correct-node index `index`. Adversary faces (crash
/// and two-faced inner protocols) get indices past the correct range, so
/// they draw inputs[index % inputs.size()] like everyone else.
[[nodiscard]] std::unique_ptr<Process> make_loop_process(const ScenarioScript& script, NodeId id,
                                                         std::size_t index);
/// Process for churn joiner number `joiner_index` (inputs continue the
/// correct nodes' cycle; totalorder joiners are non-founders).
[[nodiscard]] std::unique_ptr<Process> make_loop_joiner(const ScenarioScript& script,
                                                        const Scenario& scenario, NodeId id,
                                                        std::size_t joiner_index);

/// Pre-run wiring of the initial correct nodes `find` resolves (a shard
/// worker resolves only its own slice): consensus nodes report protocol
/// events to `observer` (may be null); totalorder nodes each submit four
/// events. Churn joiners are never primed.
void prime_loop_nodes(const Scenario& scenario, const std::function<Process*(NodeId)>& find,
                      ProtocolObserver* observer);

/// The invariant monitor over the initial correct nodes' decisions —
/// including nodes that later leave, never joiners. Consensus only (null
/// otherwise): the strong-validity probe arms when the script expects
/// validity, the liveness probe with `liveness`.
[[nodiscard]] std::unique_ptr<InvariantMonitor> make_loop_monitor(const ScenarioScript& script,
                                                                  const Scenario& scenario);

/// Stop rule. Consensus and king stop once every tracked node is done;
/// totalorder never stops early — it runs max_rounds.
[[nodiscard]] bool stops_early(ScriptProtocol protocol);
/// Asked before each round: `done(id)` is false for a node the engine
/// does not have.
[[nodiscard]] bool loop_finished(const ScenarioScript& script, const std::vector<NodeId>& tracked,
                                 const std::function<bool(NodeId)>& done);

/// One correct node's end state, as the verdict reads it.
struct NodeOutcome {
  bool done = false;
  std::optional<Value> output;    ///< consensus, king
  std::vector<ChainEntry> chain;  ///< totalorder
};
[[nodiscard]] NodeOutcome node_outcome(const Process& process);

/// The verdict: appends `run`'s outcomes (termination, agreement,
/// validity, no-violations — those the script expects, in that order) and
/// violations from the tracked nodes' end states (`nodes` may hold more;
/// a tracked node missing from it is skipped) and, for consensus, the
/// finished monitor.
void judge_loop_run(const ScenarioScript& script, const Scenario& scenario,
                    const std::vector<NodeId>& tracked, const std::map<NodeId, NodeOutcome>& nodes,
                    const InvariantMonitor* monitor, ScriptRun& run);

}  // namespace idonly
