// One-call experiment runners: run the protocol to completion and return a
// structured result with the properties the paper claims. Tests assert on
// these; benchmarks time/print them. run_consensus, run_reliable_broadcast,
// run_approx_agreement and run_rotor are thin builders over the script loop
// (harness/script.hpp); judge_loop_run shares the latter three's fold_*
// functions. run_known_f_approx and run_parallel_consensus back no script
// protocol and set up their own SyncSimulator.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"
#include "common/value.hpp"
#include "core/rb_backend.hpp"
#include "core/rotor_coordinator.hpp"
#include "core/parallel_consensus.hpp"
#include "harness/script.hpp"

namespace idonly {

// -------------------------------------------------------------- consensus --
struct ConsensusRun {
  bool all_decided = false;
  bool agreement = false;   ///< all correct outputs equal
  bool validity = false;    ///< common output is some correct node's input
  std::vector<Value> outputs;          ///< per correct node, decision order of correct_ids
  std::int64_t max_decision_phase = 0; ///< slowest correct node's phase
  Round rounds = 0;
  std::uint64_t messages = 0;
};

/// Inputs are assigned per correct-node index: inputs[i % inputs.size()].
/// Adversary faces (crash/two-faced inner protocols) draw alternating 0/1.
[[nodiscard]] ConsensusRun run_consensus(const ScenarioConfig& config,
                                         const std::vector<double>& inputs,
                                         Round max_rounds = 2000);

// ----------------------------------------------------- reliable broadcast --
struct ReliableBroadcastRun {
  bool source_correct = false;
  std::size_t accepted_count = 0;       ///< correct nodes that accepted
  bool agreement = false;               ///< all acceptors agree on payload
  bool relay_ok = false;                ///< accept rounds within 1 of each other
  std::optional<Round> first_accept_round;
  std::optional<Round> last_accept_round;
  Round rounds = 0;
  std::uint64_t messages = 0;
  FanoutCounters fanout;                ///< engine fan-out/coalescing counters
};

/// When `byzantine_source` is true the designated source is the first
/// Byzantine id (it behaves per the scenario's adversary kind). `backend`
/// selects the RB state machine (core/rb_backend.hpp) — note kImbs needs
/// n > 5f for its guarantees. The run lasts exactly `run_rounds` rounds,
/// capped at 60 like an rb script's.
[[nodiscard]] ReliableBroadcastRun run_reliable_broadcast(
    const ScenarioConfig& config, double payload, bool byzantine_source = false,
    Round run_rounds = 30, RbBackendKind backend = RbBackendKind::kAlg1);

/// The folds over the correct nodes' end states, by id: every field but the
/// run-wide ones (source_correct, rounds, messages, fanout).
[[nodiscard]] ReliableBroadcastRun fold_reliable_broadcast(
    const std::map<NodeId, NodeOutcome>& correct);

// ---------------------------------------------------- approximate agreement --
struct ApproxRun {
  double input_range = 0;   ///< max - min over correct inputs
  double output_range = 0;  ///< max - min over correct outputs
  bool within_input_range = false;
  std::vector<double> range_per_iteration;  ///< range after each iteration
  Round rounds = 0;
  std::uint64_t messages = 0;
};

[[nodiscard]] ApproxRun run_approx_agreement(const ScenarioConfig& config,
                                             const std::vector<double>& inputs,
                                             int iterations = 1);

/// Correct node i's input is inputs[i % inputs.size()].
[[nodiscard]] ApproxRun fold_approx(const std::vector<double>& inputs, int iterations,
                                    const std::map<NodeId, NodeOutcome>& correct);

/// Classical known-f baseline on the same inputs (no Byzantine strategies
/// beyond value-reporting — the baseline assumes known membership).
[[nodiscard]] ApproxRun run_known_f_approx(std::size_t n_correct, std::size_t f,
                                           const std::vector<double>& inputs, int iterations,
                                           std::uint64_t seed);

// -------------------------------------------------------------------- rotor --
struct RotorRun {
  bool all_terminated = false;
  Round max_termination_round = 0;       ///< slowest correct node (local rounds)
  bool good_round_witnessed = false;     ///< Theorem 2's guarantee
  std::optional<std::int64_t> first_good_round;
  bool good_opinion_accepted = false;    ///< everyone accepted the good coordinator's opinion
  Round rounds = 0;
  std::uint64_t messages = 0;
};

[[nodiscard]] RotorRun run_rotor(const ScenarioConfig& config, Round max_rounds = 500);

[[nodiscard]] RotorRun fold_rotor(const std::map<NodeId, NodeOutcome>& correct);

// -------------------------------------------------------- parallel consensus --
struct ParallelRun {
  bool all_terminated = false;
  bool agreement = false;  ///< identical output sets at all correct nodes
  std::vector<OutputPair> common_output;  ///< the agreed set (valid if agreement)
  Round rounds = 0;
  std::uint64_t messages = 0;
};

/// `inputs_per_node[i]` are node i's input pairs (i over correct nodes).
[[nodiscard]] ParallelRun run_parallel_consensus(
    const ScenarioConfig& config, const std::vector<std::vector<InputPair>>& inputs_per_node,
    Round max_rounds = 2000);

}  // namespace idonly
