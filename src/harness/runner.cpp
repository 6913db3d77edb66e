#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/known_f_approx.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {

namespace {
/// Range (max - min) of a non-empty vector.
double range_of(const std::vector<double>& xs) {
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return *hi - *lo;
}
}  // namespace

ConsensusRun run_consensus(const ScenarioConfig& config, const std::vector<double>& inputs,
                           Round max_rounds) {
  // One input per process index: correct nodes cycle `inputs`, adversary
  // faces (indices past the correct range) alternate 0/1.
  std::vector<double> per_index;
  for (std::size_t i = 0; i < config.n_correct + 2 * config.n_byzantine; ++i) {
    per_index.push_back(i < config.n_correct ? inputs[i % inputs.size()]
                                             : static_cast<double>(i % 2));
  }
  const LoopRun loop = run_loop_script({.protocol = ScriptProtocol::kConsensus,
                                        .config = config,
                                        .inputs = std::move(per_index),
                                        .max_rounds = max_rounds});
  ConsensusRun run;
  run.rounds = loop.run.rounds;
  run.messages = loop.run.messages;
  run.all_decided = !loop.nodes.empty();
  for (const auto& [id, node] : loop.nodes) {
    run.all_decided = run.all_decided && node.done;
    if (!node.output.has_value()) continue;
    run.outputs.push_back(*node.output);
    run.max_decision_phase = std::max(run.max_decision_phase, node.decision_phase.value_or(0));
  }
  run.agreement = run.outputs.size() == config.n_correct &&
                  std::all_of(run.outputs.begin(), run.outputs.end(),
                              [&](const Value& v) { return v == run.outputs.front(); });
  if (run.agreement && !run.outputs.empty()) {
    const Value& decided = run.outputs.front();
    for (std::size_t i = 0; i < config.n_correct; ++i) {
      if (Value::real(inputs[i % inputs.size()]) == decided) run.validity = true;
    }
  }
  return run;
}

ReliableBroadcastRun run_reliable_broadcast(const ScenarioConfig& config, double payload,
                                            bool byzantine_source, Round run_rounds,
                                            RbBackendKind backend) {
  const LoopRun loop = run_loop_script({.protocol = ScriptProtocol::kRb,
                                        .config = config,
                                        .inputs = {payload},
                                        .byz_source = byzantine_source,
                                        .rb_backend = backend,
                                        .max_rounds = run_rounds});
  ReliableBroadcastRun run = fold_reliable_broadcast(loop.nodes);
  run.source_correct = !byzantine_source;
  run.rounds = loop.run.rounds;
  run.messages = loop.run.messages;
  run.fanout = loop.metrics.fanout;
  return run;
}

ReliableBroadcastRun fold_reliable_broadcast(const std::map<NodeId, NodeOutcome>& correct) {
  ReliableBroadcastRun run;
  std::vector<Value> payloads;
  for (const auto& [id, node] : correct) {
    if (!node.output.has_value()) continue;
    run.accepted_count += 1;
    payloads.push_back(*node.output);
    const Round accept = *node.accept_round;
    run.first_accept_round = run.first_accept_round.has_value()
                                 ? std::min(*run.first_accept_round, accept)
                                 : accept;
    run.last_accept_round =
        run.last_accept_round.has_value() ? std::max(*run.last_accept_round, accept) : accept;
  }
  run.agreement = std::all_of(payloads.begin(), payloads.end(),
                              [&](const Value& v) { return v == payloads.front(); });
  run.relay_ok = !run.first_accept_round.has_value() ||
                 (run.accepted_count == correct.size() &&
                  *run.last_accept_round - *run.first_accept_round <= 1);
  return run;
}

ApproxRun run_approx_agreement(const ScenarioConfig& config, const std::vector<double>& inputs,
                               int iterations) {
  const LoopRun loop = run_loop_script({.protocol = ScriptProtocol::kApprox,
                                        .config = config,
                                        .inputs = inputs,
                                        .iterations = iterations});
  ApproxRun run = fold_approx(inputs, iterations, loop.nodes);
  run.rounds = loop.run.rounds;
  run.messages = loop.run.messages;
  return run;
}

ApproxRun fold_approx(const std::vector<double>& inputs, int iterations,
                      const std::map<NodeId, NodeOutcome>& correct) {
  ApproxRun run;
  std::vector<double> correct_inputs;
  for (std::size_t i = 0; i < correct.size(); ++i) {
    correct_inputs.push_back(inputs[i % inputs.size()]);
  }
  run.input_range = range_of(correct_inputs);

  std::vector<double> outputs;
  for (const auto& [id, node] : correct) outputs.push_back(node.estimate);
  run.output_range = outputs.empty() ? 0.0 : range_of(outputs);
  const auto [lo, hi] = std::minmax_element(correct_inputs.begin(), correct_inputs.end());
  run.within_input_range = std::all_of(outputs.begin(), outputs.end(), [&](double o) {
    return o >= *lo - 1e-12 && o <= *hi + 1e-12;
  });
  for (std::size_t it = 0; it < static_cast<std::size_t>(iterations); ++it) {
    std::vector<double> at_iter;
    for (const auto& [id, node] : correct) {
      if (it < node.trajectory.size()) at_iter.push_back(node.trajectory[it]);
    }
    if (!at_iter.empty()) run.range_per_iteration.push_back(range_of(at_iter));
  }
  return run;
}

ApproxRun run_known_f_approx(std::size_t n_correct, std::size_t f,
                             const std::vector<double>& inputs, int iterations,
                             std::uint64_t seed) {
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = f;
  config.adversary = f == 0 ? AdversaryKind::kNone : AdversaryKind::kExtreme;
  config.seed = seed;
  const Scenario scenario = make_scenario(config);
  SyncSimulator sim;
  auto factory = [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
    return std::make_unique<KnownFApproxProcess>(id, inputs[index % inputs.size()],
                                                 config.n_byzantine, iterations);
  };
  populate(sim, scenario, factory);
  sim.run_until_all_correct_done(/*max_rounds=*/iterations + 4);

  std::map<NodeId, NodeOutcome> correct;
  for (NodeId id : scenario.correct_ids) {
    if (auto* p = sim.get<KnownFApproxProcess>(id)) {
      correct[id].estimate = p->value();
      correct[id].trajectory = p->trajectory();
    }
  }
  ApproxRun run = fold_approx(inputs, iterations, correct);
  run.rounds = sim.round();
  run.messages = sim.metrics().messages.total_delivered();
  return run;
}

RotorRun run_rotor(const ScenarioConfig& config, Round max_rounds) {
  const LoopRun loop = run_loop_script(
      {.protocol = ScriptProtocol::kRotor, .config = config, .max_rounds = max_rounds});
  RotorRun run = fold_rotor(loop.nodes);
  run.rounds = loop.run.rounds;
  run.messages = loop.run.messages;
  for (const auto& [id, round] : loop.metrics.done_round) {
    if (loop.nodes.contains(id)) {
      run.max_termination_round = std::max(run.max_termination_round, round);
    }
  }
  return run;
}

RotorRun fold_rotor(const std::map<NodeId, NodeOutcome>& correct) {
  RotorRun run;
  if (correct.empty()) return run;
  run.all_terminated = std::all_of(correct.begin(), correct.end(),
                                   [](const auto& entry) { return entry.second.done; });
  // A good round: a rotor round where every correct node selected the same
  // CORRECT coordinator.
  const auto& reference = correct.begin()->second.history;
  std::size_t min_len = reference.size();
  for (const auto& [id, node] : correct) min_len = std::min(min_len, node.history.size());
  for (std::size_t r = 0; r < min_len && !run.good_round_witnessed; ++r) {
    const std::optional<NodeId>& first = reference[r].selected;
    if (!first.has_value() || !correct.contains(*first)) continue;
    bool common = true;
    for (const auto& [id, node] : correct) common = common && node.history[r].selected == first;
    if (!common) continue;
    run.good_round_witnessed = true;
    run.first_good_round = static_cast<std::int64_t>(r);
    // Theorem 2's payoff: in the round after a good round, every correct
    // node accepts the good coordinator's opinion.
    bool all_accepted = true;
    for (const auto& [id, node] : correct) {
      const bool has_next = r + 1 < node.history.size();
      all_accepted = all_accepted && has_next && node.history[r + 1].accepted_from == first &&
                     node.history[r + 1].accepted_opinion.has_value();
    }
    run.good_opinion_accepted = all_accepted;
  }
  return run;
}

ParallelRun run_parallel_consensus(const ScenarioConfig& config,
                                   const std::vector<std::vector<InputPair>>& inputs_per_node,
                                   Round max_rounds) {
  const Scenario scenario = make_scenario(config);
  SyncSimulator sim;
  auto factory = [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
    std::vector<InputPair> inputs;
    if (index < inputs_per_node.size()) inputs = inputs_per_node[index];
    return std::make_unique<ParallelConsensusProcess>(id, std::move(inputs));
  };
  populate(sim, scenario, factory);
  ParallelRun run;
  run.all_terminated = sim.run_until_all_correct_done(max_rounds);
  run.rounds = sim.round();
  run.messages = sim.metrics().messages.total_delivered();

  std::vector<std::vector<OutputPair>> outputs;
  for (NodeId id : scenario.correct_ids) {
    if (auto* p = sim.get<ParallelConsensusProcess>(id); p != nullptr) {
      auto pairs = p->outputs();
      std::sort(pairs.begin(), pairs.end());
      outputs.push_back(std::move(pairs));
    }
  }
  run.agreement = !outputs.empty() &&
                  std::all_of(outputs.begin(), outputs.end(),
                              [&](const auto& o) { return o == outputs.front(); });
  if (run.agreement) run.common_output = outputs.front();
  return run;
}

}  // namespace idonly
