#include "harness/script.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "common/invariants.hpp"
#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "core/king_consensus.hpp"
#include "core/renaming.hpp"
#include "core/total_order.hpp"
#include "harness/runner.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {

std::string to_string(ScriptProtocol protocol) {
  switch (protocol) {
    case ScriptProtocol::kConsensus: return "consensus";
    case ScriptProtocol::kKing: return "king";
    case ScriptProtocol::kRb: return "rb";
    case ScriptProtocol::kApprox: return "approx";
    case ScriptProtocol::kRotor: return "rotor";
    case ScriptProtocol::kRenaming: return "renaming";
    case ScriptProtocol::kTotalOrder: return "totalorder";
  }
  return "unknown";
}

std::string to_string(Expectation expectation) {
  switch (expectation) {
    case Expectation::kTermination: return "termination";
    case Expectation::kAgreement: return "agreement";
    case Expectation::kValidity: return "validity";
    case Expectation::kAcceptance: return "acceptance";
    case Expectation::kGoodRound: return "good-round";
    case Expectation::kWithinRange: return "within-range";
    case Expectation::kContraction: return "contraction";
    case Expectation::kNoViolations: return "no-violations";
  }
  return "unknown";
}

namespace {

std::optional<ScriptProtocol> parse_protocol(const std::string& word) {
  if (word == "consensus") return ScriptProtocol::kConsensus;
  if (word == "king") return ScriptProtocol::kKing;
  if (word == "rb") return ScriptProtocol::kRb;
  if (word == "approx") return ScriptProtocol::kApprox;
  if (word == "rotor") return ScriptProtocol::kRotor;
  if (word == "renaming") return ScriptProtocol::kRenaming;
  if (word == "totalorder") return ScriptProtocol::kTotalOrder;
  return std::nullopt;
}

std::optional<Expectation> parse_expectation(const std::string& word) {
  if (word == "termination") return Expectation::kTermination;
  if (word == "agreement") return Expectation::kAgreement;
  if (word == "validity") return Expectation::kValidity;
  if (word == "acceptance") return Expectation::kAcceptance;
  if (word == "good-round") return Expectation::kGoodRound;
  if (word == "within-range") return Expectation::kWithinRange;
  if (word == "contraction") return Expectation::kContraction;
  if (word == "no-violations") return Expectation::kNoViolations;
  return std::nullopt;
}

std::optional<AdversaryKind> parse_adversary_name(const std::string& word) {
  for (AdversaryKind kind : all_adversaries()) {
    if (to_string(kind) == word) return kind;
  }
  if (word == "none") return AdversaryKind::kNone;
  return std::nullopt;
}

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream stream(text);
  while (std::getline(stream, part, separator)) parts.push_back(part);
  return parts;
}

/// "3-8" → (3, 8). Used for round windows and id-index ranges.
std::optional<std::pair<long long, long long>> parse_dash_range(const std::string& text) {
  const auto dash = text.find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= text.size()) return std::nullopt;
  try {
    const long long a = std::stoll(text.substr(0, dash));
    const long long b = std::stoll(text.substr(dash + 1));
    if (a < 0 || b < 0 || b < a) return std::nullopt;
    return std::make_pair(a, b);
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<double> parse_probability(const std::string& text) {
  try {
    const double p = std::stod(text);
    if (p < 0.0 || p > 1.0) return std::nullopt;
    return p;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

std::variant<ScenarioScript, ParseError> parse_script(const std::string& text) {
  ScenarioScript script;
  script.config.n_byzantine = 0;
  script.config.adversary = AdversaryKind::kNone;

  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  auto fail = [&](const std::string& message) {
    return ParseError{line_number, message};
  };

  while (std::getline(stream, line)) {
    line_number += 1;
    // Strip comments and whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string keyword;
    if (!(words >> keyword)) continue;  // blank line

    if (keyword == "protocol") {
      std::string name;
      if (!(words >> name)) return fail("protocol: missing name");
      const auto protocol = parse_protocol(name);
      if (!protocol.has_value()) return fail("protocol: unknown '" + name + "'");
      script.protocol = *protocol;
    } else if (keyword == "nodes") {
      // Note: istream happily wraps "-3" into a huge unsigned value, so a
      // sanity ceiling doubles as the negative-input check.
      if (!(words >> script.config.n_correct) || script.config.n_correct == 0 ||
          script.config.n_correct > 10'000) {
        return fail("nodes: expected a positive count (at most 10000)");
      }
    } else if (keyword == "inputs") {
      std::string list;
      if (!(words >> list)) return fail("inputs: missing list");
      script.inputs.clear();
      for (const std::string& item : split(list, ',')) {
        try {
          script.inputs.push_back(std::stod(item));
        } catch (...) {
          return fail("inputs: bad number '" + item + "'");
        }
      }
      if (script.inputs.empty()) return fail("inputs: empty list");
    } else if (keyword == "byzantine") {
      std::string kinds;
      if (!(words >> script.config.n_byzantine) || !(words >> kinds)) {
        return fail("byzantine: expected <count> <kind>[,<kind>...]");
      }
      script.config.adversary_mix.clear();
      for (const std::string& name : split(kinds, ',')) {
        const auto kind = parse_adversary_name(name);
        if (!kind.has_value()) return fail("byzantine: unknown adversary '" + name + "'");
        script.config.adversary_mix.push_back(*kind);
      }
      if (!script.config.adversary_mix.empty()) {
        script.config.adversary = script.config.adversary_mix.front();
      }
    } else if (keyword == "seed") {
      if (!(words >> script.config.seed)) return fail("seed: expected a number");
    } else if (keyword == "max-rounds") {
      if (!(words >> script.max_rounds) || script.max_rounds <= 0) {
        return fail("max-rounds: expected a positive number");
      }
    } else if (keyword == "iterations") {
      if (!(words >> script.iterations) || script.iterations <= 0) {
        return fail("iterations: expected a positive number");
      }
    } else if (keyword == "crash-round") {
      if (!(words >> script.config.crash_round)) return fail("crash-round: expected a number");
    } else if (keyword == "byz-source") {
      script.byz_source = true;
    } else if (keyword == "rb") {
      std::string name;
      if (!(words >> name)) return fail("rb: missing backend name");
      const auto backend = parse_rb_backend(name);
      if (!backend.has_value()) return fail("rb: unknown backend '" + name + "'");
      script.rb_backend = *backend;
    } else if (keyword == "chaos") {
      std::string window;
      if (!(words >> window)) return fail("chaos: expected <first>-<last> round window");
      const auto rounds = parse_dash_range(window);
      if (!rounds.has_value() || rounds->first < 1) {
        return fail("chaos: bad round window '" + window + "'");
      }
      ChaosPhaseSpec phase;
      phase.first_round = rounds->first;
      phase.last_round = rounds->second;
      bool any_fault = false;
      std::string token;
      while (words >> token) {
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
          return fail("chaos: expected <fault>=<spec>, got '" + token + "'");
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        any_fault = true;
        if (key == "drop" || key == "dup" || key == "corrupt") {
          const auto p = parse_probability(value);
          if (!p.has_value()) return fail("chaos: " + key + " needs a probability in [0,1]");
          (key == "drop" ? phase.drop : key == "dup" ? phase.duplicate : phase.corrupt) = *p;
        } else if (key == "delay") {
          // delay=<p>:<max extra rounds>
          const auto parts = split(value, ':');
          const auto p = parse_probability(parts.front());
          if (parts.size() != 2 || !p.has_value()) {
            return fail("chaos: delay needs <probability>:<max-extra-rounds>");
          }
          try {
            phase.delay_max_extra = std::stoll(parts[1]);
          } catch (...) {
            return fail("chaos: delay needs <probability>:<max-extra-rounds>");
          }
          if (phase.delay_max_extra < 1) return fail("chaos: delay max extra rounds must be >= 1");
          phase.delay_probability = *p;
        } else if (key == "partition") {
          const auto range = parse_dash_range(value);
          if (!range.has_value()) return fail("chaos: partition needs <index>-<index>");
          phase.partition = std::make_pair(static_cast<std::size_t>(range->first),
                                           static_cast<std::size_t>(range->second));
        } else if (key == "crash") {
          // crash=<index>:<first>-<last>
          const auto parts = split(value, ':');
          if (parts.size() != 2) return fail("chaos: crash needs <index>:<first>-<last>");
          const auto crash_rounds = parse_dash_range(parts[1]);
          if (!crash_rounds.has_value() || crash_rounds->first < 1) {
            return fail("chaos: crash needs <index>:<first>-<last>");
          }
          ChaosPhaseSpec::CrashSpec crash;
          try {
            crash.index = static_cast<std::size_t>(std::stoull(parts[0]));
          } catch (...) {
            return fail("chaos: crash needs <index>:<first>-<last>");
          }
          crash.first = crash_rounds->first;
          crash.last = crash_rounds->second;
          phase.crashes.push_back(crash);
        } else {
          return fail("chaos: unknown fault '" + key + "'");
        }
      }
      if (!any_fault) return fail("chaos: phase declares no faults");
      script.chaos_phases.push_back(std::move(phase));
    } else if (keyword == "churn") {
      ChurnEventSpec event;
      long long round = 0;
      if (!(words >> round) || round < 1) return fail("churn: expected a round >= 1");
      event.round = round;
      std::string token;
      if (!(words >> token)) return fail("churn: expected join=<count> or leave=<index>");
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        return fail("churn: expected join=<count> or leave=<index>, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key == "join") {
          event.is_join = true;
          event.join_count = static_cast<std::size_t>(std::stoull(value));
          if (event.join_count == 0 || event.join_count > 100) {
            return fail("churn: join count must be in [1, 100]");
          }
        } else if (key == "leave") {
          event.is_join = false;
          event.leave_index = static_cast<std::size_t>(std::stoull(value));
        } else {
          return fail("churn: unknown event '" + key + "'");
        }
      } catch (...) {
        return fail("churn: bad number '" + value + "'");
      }
      script.churn_events.push_back(event);
    } else if (keyword == "liveness") {
      if (!(words >> script.liveness_budget) || script.liveness_budget <= 0) {
        return fail("liveness: expected a positive round budget");
      }
    } else if (keyword == "expect") {
      std::string name;
      if (!(words >> name)) return fail("expect: missing expectation");
      const auto expectation = parse_expectation(name);
      if (!expectation.has_value()) return fail("expect: unknown '" + name + "'");
      script.expectations.push_back(*expectation);
    } else {
      return fail("unknown keyword '" + keyword + "'");
    }
    std::string extra;
    if (words >> extra) return fail("trailing token '" + extra + "'");
  }
  if (!script.chaos_phases.empty() && script.protocol != ScriptProtocol::kConsensus &&
      script.protocol != ScriptProtocol::kTotalOrder) {
    return ParseError{0, "chaos phases are supported for the consensus and totalorder protocols"};
  }
  if (!script.churn_events.empty() && script.protocol != ScriptProtocol::kConsensus &&
      script.protocol != ScriptProtocol::kTotalOrder) {
    return ParseError{0, "churn events are supported for the consensus and totalorder protocols"};
  }
  if (script.rb_backend != RbBackendKind::kAlg1 && script.protocol != ScriptProtocol::kRb) {
    return ParseError{0, "rb backend selection is supported for the rb protocol only"};
  }
  return script;
}

ChaosPlan materialize_chaos_plan(const std::vector<ChaosPhaseSpec>& specs,
                                 const std::vector<NodeId>& all_ids) {
  ChaosPlan plan;
  auto id_at = [&](std::size_t index) {
    if (index >= all_ids.size()) {
      throw std::invalid_argument("chaos phase references node index " + std::to_string(index) +
                                  " but the scenario has only " +
                                  std::to_string(all_ids.size()) + " nodes");
    }
    return all_ids[index];
  };
  for (const ChaosPhaseSpec& spec : specs) {
    ChaosPhase phase;
    phase.first_round = spec.first_round;
    phase.last_round = spec.last_round;
    phase.drop = spec.drop;
    phase.duplicate = spec.duplicate;
    phase.corrupt = spec.corrupt;
    phase.delay.probability = spec.delay_probability;
    phase.delay.max_extra_rounds = spec.delay_max_extra;
    if (spec.partition.has_value()) {
      ChaosPartition partition;
      for (std::size_t i = spec.partition->first; i <= spec.partition->second; ++i) {
        partition.side_a.push_back(id_at(i));
      }
      for (std::size_t i = 0; i < all_ids.size(); ++i) {
        if (i < spec.partition->first || i > spec.partition->second) {
          partition.side_b.push_back(all_ids[i]);
        }
      }
      phase.partitions.push_back(std::move(partition));
    }
    for (const ChaosPhaseSpec::CrashSpec& crash : spec.crashes) {
      phase.crashes.push_back(CrashWindow{id_at(crash.index), crash.first, crash.last});
    }
    plan.phases.push_back(std::move(phase));
  }
  return plan;
}

ChurnDriver::ChurnDriver(const ScenarioScript& script, const Scenario& scenario)
    : events_(script.churn_events),
      initial_correct_(scenario.correct_ids),
      tracked_(scenario.correct_ids),
      rng_(derive_seed(script.config.seed, 0xC1124)) {
  for (NodeId id : scenario.correct_ids) next_id_ = std::max(next_id_, id + 1);
  for (NodeId id : scenario.byzantine_ids) next_id_ = std::max(next_id_, id + 1);
}

void ChurnDriver::apply(Round round, const JoinerFactory& make_joiner, const AddFn& add,
                        const RemoveFn& remove) {
  for (const ChurnEventSpec& event : events_) {
    if (event.round != round) continue;
    if (event.is_join) {
      for (std::size_t k = 0; k < event.join_count; ++k) {
        next_id_ += rng_.below(7);  // sparse ids, like make_scenario's draw
        add(make_joiner(next_id_, joiners_));
        next_id_ += 1;
        joiners_ += 1;
      }
    } else {
      if (event.leave_index >= initial_correct_.size()) {
        throw std::invalid_argument("churn leave references correct-node index " +
                                    std::to_string(event.leave_index) +
                                    " but the scenario has only " +
                                    std::to_string(initial_correct_.size()) + " correct nodes");
      }
      const NodeId id = initial_correct_[event.leave_index];
      remove(id);
      std::erase(tracked_, id);
    }
  }
}

void ChurnDriver::apply(SyncSimulator& sim, Round round, const JoinerFactory& make_joiner) {
  apply(
      round, make_joiner,
      [&sim](std::unique_ptr<Process> process) { sim.add_process(std::move(process)); },
      [&sim](NodeId id) { sim.remove_process(id); });
}

namespace {

void check(ScriptRun& run, Expectation expectation, bool satisfied, std::string detail) {
  run.outcomes.push_back(ExpectationOutcome{expectation, satisfied, std::move(detail)});
  run.all_satisfied = run.all_satisfied && satisfied;
}

bool wants(const ScenarioScript& script, Expectation expectation) {
  return std::find(script.expectations.begin(), script.expectations.end(), expectation) !=
         script.expectations.end();
}

/// The initial correct nodes' inputs, in correct-id order.
std::vector<Value> correct_inputs(const ScenarioScript& script, const Scenario& scenario) {
  std::vector<Value> inputs;
  for (std::size_t i = 0; i < scenario.correct_ids.size(); ++i) {
    inputs.push_back(Value::real(script.inputs[i % script.inputs.size()]));
  }
  return inputs;
}

/// A round-loop protocol on one SyncSimulator. The monitor is fed online by
/// the initial correct nodes (so it also catches a node deciding twice).
ScriptRun run_loop_script(const ScenarioScript& script, const ScriptOptions& options) {
  ScriptRun result;
  const Scenario scenario = make_scenario(script.config);
  SyncSimulator sim;
  sim.set_trace_recorder(options.recorder);
  sim.set_threads(options.threads);
  std::shared_ptr<ChaosSchedule> chaos;
  if (!script.chaos_phases.empty()) {
    chaos = std::make_shared<ChaosSchedule>(
        materialize_chaos_plan(script.chaos_phases, scenario.all_ids()), script.config.seed);
    sim.set_chaos(chaos);
  }

  const std::unique_ptr<InvariantMonitor> monitor = make_loop_monitor(script, scenario);
  // With a recorder, protocol events flow into the flight recording AND on
  // to the invariant monitor (TraceObserver chains).
  TraceObserver trace_observer(options.recorder, monitor.get());
  ProtocolObserver* observer =
      options.recorder != nullptr ? &trace_observer : static_cast<ProtocolObserver*>(monitor.get());
  populate(sim, scenario,
           [&](NodeId id, std::size_t index) { return make_loop_process(script, id, index); });
  prime_loop_nodes(scenario, [&](NodeId id) { return sim.find(id); }, observer);

  ChurnDriver churn(script, scenario);
  const auto make_joiner = [&](NodeId id, std::size_t joiner_index) {
    return make_loop_joiner(script, scenario, id, joiner_index);
  };
  const auto done = [&](NodeId id) {
    const Process* p = sim.find(id);
    return p != nullptr && p->done();
  };
  for (Round i = 0; i < script.max_rounds && !loop_finished(script, churn.tracked(), done); ++i) {
    churn.apply(sim, sim.round() + 1, make_joiner);
    sim.step();
  }
  if (monitor != nullptr) monitor->finish(sim.round());

  result.rounds = sim.round();
  result.messages = sim.metrics().messages.total_delivered();
  std::optional<ChaosCounters> chaos_counters;
  if (chaos != nullptr) {
    chaos_counters = chaos->counters();
    result.chaos_summary = chaos_counters->summary();
  }
  result.metrics_exposition =
      prometheus_exposition(sim.metrics(), chaos_counters ? &*chaos_counters : nullptr);

  std::map<NodeId, NodeOutcome> nodes;
  for (NodeId id : churn.tracked()) {
    if (const Process* p = sim.find(id)) nodes.emplace(id, node_outcome(*p));
  }
  judge_loop_run(script, scenario, churn.tracked(), nodes, monitor.get(), result);
  return result;
}

}  // namespace

std::unique_ptr<Process> make_loop_process(const ScenarioScript& script, NodeId id,
                                           std::size_t index) {
  const Value input = Value::real(script.inputs[index % script.inputs.size()]);
  switch (script.protocol) {
    case ScriptProtocol::kKing: return std::make_unique<KingConsensusProcess>(id, input);
    case ScriptProtocol::kTotalOrder:
      return std::make_unique<TotalOrderProcess>(id, /*founder=*/true);
    default: return std::make_unique<ConsensusProcess>(id, input);
  }
}

std::unique_ptr<Process> make_loop_joiner(const ScenarioScript& script, const Scenario& scenario,
                                          NodeId id, std::size_t joiner_index) {
  if (script.protocol == ScriptProtocol::kTotalOrder) {
    return std::make_unique<TotalOrderProcess>(id, /*founder=*/false);
  }
  return make_loop_process(script, id, scenario.correct_ids.size() + joiner_index);
}

void prime_loop_nodes(const Scenario& scenario, const std::function<Process*(NodeId)>& find,
                      ProtocolObserver* observer) {
  for (std::size_t i = 0; i < scenario.correct_ids.size(); ++i) {
    Process* p = find(scenario.correct_ids[i]);
    if (auto* c = dynamic_cast<ConsensusProcess*>(p); c != nullptr && observer != nullptr) {
      c->set_observer(observer);
    } else if (auto* t = dynamic_cast<TotalOrderProcess*>(p)) {
      for (int k = 0; k < 4; ++k) t->submit_event(static_cast<double>(i * 10 + k));
    }
  }
}

std::unique_ptr<InvariantMonitor> make_loop_monitor(const ScenarioScript& script,
                                                    const Scenario& scenario) {
  if (script.protocol != ScriptProtocol::kConsensus) return nullptr;
  // The validity probe (decided value ∈ correct inputs — STRONG validity)
  // arms only when the script expects validity: with split real-valued
  // inputs and f at the tolerance ceiling, A3's coordinator-adoption step
  // can legitimately land on an adversary value (EXPERIMENTS.md E11), so
  // scripts probing that regime must be able to watch agreement/liveness
  // without the strong-validity probe tripping no-violations.
  auto monitor = std::make_unique<InvariantMonitor>(
      wants(script, Expectation::kValidity) ? correct_inputs(script, scenario)
                                            : std::vector<Value>{});
  if (script.liveness_budget > 0) monitor->set_termination_probe(script.liveness_budget);
  return monitor;
}

bool stops_early(ScriptProtocol protocol) { return protocol != ScriptProtocol::kTotalOrder; }

bool loop_finished(const ScenarioScript& script, const std::vector<NodeId>& tracked,
                   const std::function<bool(NodeId)>& done) {
  return stops_early(script.protocol) && !tracked.empty() &&
         std::all_of(tracked.begin(), tracked.end(), done);
}

NodeOutcome node_outcome(const Process& process) {
  NodeOutcome out;
  out.done = process.done();
  if (const auto* c = dynamic_cast<const ConsensusProcess*>(&process)) {
    out.output = c->output();
  } else if (const auto* k = dynamic_cast<const KingConsensusProcess*>(&process)) {
    out.output = k->output();
  } else if (const auto* t = dynamic_cast<const TotalOrderProcess*>(&process)) {
    out.chain = t->chain();
  }
  return out;
}

void judge_loop_run(const ScenarioScript& script, const Scenario& scenario,
                    const std::vector<NodeId>& tracked, const std::map<NodeId, NodeOutcome>& nodes,
                    const InvariantMonitor* monitor, ScriptRun& run) {
  const auto find = [&](NodeId id) -> const NodeOutcome* {
    const auto it = nodes.find(id);
    return it != nodes.end() ? &it->second : nullptr;
  };

  if (script.protocol == ScriptProtocol::kTotalOrder) {
    // Chain-prefix: any two tracked correct chains must be prefix-comparable
    // (the shorter one is a literal prefix of the longer). Chain-growth:
    // every tracked correct node finalized something by the end of the run.
    // Late joiners' chains start at their join round, so they are exempt
    // (the dynamic_ledger example shows how to align them by instance).
    bool growth = !tracked.empty();
    bool prefix_ok = true;
    const std::vector<ChainEntry>* longest = nullptr;
    for (NodeId id : tracked) {
      const NodeOutcome* node = find(id);
      if (node == nullptr) continue;
      growth = growth && !node->chain.empty();
      if (longest == nullptr || node->chain.size() > longest->size()) longest = &node->chain;
    }
    for (NodeId id : tracked) {
      const NodeOutcome* node = find(id);
      if (node == nullptr) continue;
      if (!std::equal(node->chain.begin(), node->chain.end(), longest->begin())) {
        prefix_ok = false;
        run.violations.push_back("node " + std::to_string(id) +
                                 "'s chain is not a prefix of the longest chain");
      }
    }
    if (wants(script, Expectation::kTermination)) {
      check(run, Expectation::kTermination, growth, "every correct chain grew");
    }
    if (wants(script, Expectation::kAgreement)) {
      check(run, Expectation::kAgreement, prefix_ok, "chains prefix-comparable");
    }
    if (wants(script, Expectation::kNoViolations)) {
      check(run, Expectation::kNoViolations, prefix_ok,
            run.violations.empty() ? "chain-prefix invariant clean" : run.violations.front());
    }
    return;
  }

  // Termination is the stop rule, read at the end of the run.
  const bool all_decided = loop_finished(script, tracked, [&](NodeId id) {
    const NodeOutcome* node = find(id);
    return node != nullptr && node->done;
  });
  std::optional<Value> first;
  bool agreement = true;
  for (NodeId id : tracked) {
    const NodeOutcome* node = find(id);
    if (node == nullptr || !node->output.has_value()) continue;
    if (!first.has_value()) first = node->output;
    agreement = agreement && *node->output == *first;
  }
  const std::vector<Value> inputs = correct_inputs(script, scenario);
  const bool validity =
      first.has_value() && std::find(inputs.begin(), inputs.end(), *first) != inputs.end();
  if (monitor != nullptr) run.violations = monitor->violations();

  if (wants(script, Expectation::kTermination)) {
    check(run, Expectation::kTermination, all_decided, "all correct nodes decided");
  }
  if (wants(script, Expectation::kAgreement)) {
    check(run, Expectation::kAgreement, agreement && all_decided, "identical outputs");
  }
  if (wants(script, Expectation::kValidity)) {
    check(run, Expectation::kValidity, validity, "output is a correct input");
  }
  if (wants(script, Expectation::kNoViolations)) {
    check(run, Expectation::kNoViolations, (monitor == nullptr || monitor->ok()) && agreement,
          run.violations.empty() ? "invariant monitor clean" : run.violations.front());
  }
}

std::string summary_line(const ScenarioScript& script, const ScriptRun& run) {
  std::ostringstream summary;
  summary << to_string(script.protocol) << " n=" << script.config.n_correct << "+"
          << script.config.n_byzantine << " seed=" << script.config.seed
          << " rounds=" << run.rounds << " msgs=" << run.messages << " — "
          << (run.all_satisfied ? "OK" : "EXPECTATION FAILED");
  return summary.str();
}

ScriptRun run_script(const ScenarioScript& script) { return run_script(script, ScriptOptions{}); }

ScriptRun run_script(const ScenarioScript& script, const ScriptOptions& options) {
  ScriptRun result;
  switch (script.protocol) {
    case ScriptProtocol::kConsensus:
    case ScriptProtocol::kKing:
    case ScriptProtocol::kTotalOrder:
      result = run_loop_script(script, options);
      break;
    case ScriptProtocol::kRb: {
      const auto run = run_reliable_broadcast(script.config, script.inputs.front(),
                                              script.byz_source,
                                              std::min<Round>(script.max_rounds, 60),
                                              script.rb_backend);
      result.rounds = run.rounds;
      result.messages = run.messages;
      if (wants(script, Expectation::kAcceptance)) {
        check(result, Expectation::kAcceptance, run.accepted_count == script.config.n_correct,
              "all correct nodes accepted");
      }
      if (wants(script, Expectation::kAgreement)) {
        check(result, Expectation::kAgreement, run.agreement && run.relay_ok,
              "acceptance uniform within one round");
      }
      break;
    }
    case ScriptProtocol::kApprox: {
      const auto run = run_approx_agreement(script.config, script.inputs, script.iterations);
      result.rounds = run.rounds;
      result.messages = run.messages;
      if (wants(script, Expectation::kWithinRange)) {
        check(result, Expectation::kWithinRange, run.within_input_range,
              "outputs inside correct input range");
      }
      if (wants(script, Expectation::kContraction)) {
        const bool contracted =
            run.input_range == 0.0 || run.output_range <= run.input_range / 2.0 + 1e-12;
        check(result, Expectation::kContraction, contracted, "range at least halved");
      }
      break;
    }
    case ScriptProtocol::kRotor: {
      const auto run = run_rotor(script.config, script.max_rounds);
      result.rounds = run.rounds;
      result.messages = run.messages;
      if (wants(script, Expectation::kTermination)) {
        check(result, Expectation::kTermination, run.all_terminated, "rotor terminated");
      }
      if (wants(script, Expectation::kGoodRound)) {
        check(result, Expectation::kGoodRound,
              run.good_round_witnessed && run.good_opinion_accepted,
              "common correct coordinator witnessed and its opinion accepted");
      }
      break;
    }
    case ScriptProtocol::kRenaming: {
      const Scenario scenario = make_scenario(script.config);
      SyncSimulator sim;
      auto factory = [](NodeId id, std::size_t) { return std::make_unique<RenamingProcess>(id); };
      populate(sim, scenario, factory);
      const bool done = sim.run_until_all_correct_done(script.max_rounds);
      result.rounds = sim.round();
      result.messages = sim.metrics().messages.total_delivered();
      bool consistent = done;
      std::optional<std::set<NodeId>> reference;
      for (NodeId id : scenario.correct_ids) {
        auto* p = sim.get<RenamingProcess>(id);
        if (p == nullptr || !p->done()) {
          consistent = false;
          continue;
        }
        if (!reference.has_value()) reference = p->id_set();
        consistent = consistent && p->id_set() == *reference;
      }
      if (wants(script, Expectation::kTermination)) {
        check(result, Expectation::kTermination, done, "all renamed");
      }
      if (wants(script, Expectation::kAgreement)) {
        check(result, Expectation::kAgreement, consistent, "identical id sets");
      }
      break;
    }
  }

  result.summary = summary_line(script, result);
  return result;
}

}  // namespace idonly
