#include "impossibility/partition.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common/chaos.hpp"
#include "common/rng.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

/// Quiet-window consensus attempt (knows neither n nor f): broadcast the
/// input every round, decide the majority of the values heard at local
/// round T.
class QuietWindowProcess final : public Process {
 public:
  QuietWindowProcess(NodeId id, double input, Round decide_round)
      : Process(id), input_(input), decide_round_(decide_round) {
    heard_[id] = input;  // a node knows its own input
  }

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    if (decision_.has_value()) return;
    for (const Message& msg : inbox) heard_[msg.sender] = msg.value.as_real();
    if (round.local < decide_round_) {
      Message m;
      m.kind = MsgKind::kInput;
      m.value = Value::real(input_);
      broadcast(out, m);
      return;
    }
    // Majority of everything heard; ties broken toward the smaller value so
    // all nodes break ties identically.
    std::map<double, std::size_t> votes;
    for (const auto& [sender, v] : heard_) votes[v] += 1;
    decision_ = std::max_element(votes.begin(), votes.end(), [](const auto& a, const auto& b) {
                  return a.second < b.second;
                })->first;
  }

  [[nodiscard]] bool done() const override { return decision_.has_value(); }
  [[nodiscard]] std::optional<double> decision() const { return decision_; }

 private:
  double input_;
  Round decide_round_;
  std::map<NodeId, double> heard_;  // latest value per sender, own input included
  std::optional<double> decision_;
};

}  // namespace

PartitionResult run_partition_execution(const PartitionConfig& config, unsigned threads) {
  // Ids 1..n_a are partition A (input 1); n_a+1 .. n_a+n_b are B (input 0).
  SyncSimulator sim;
  sim.set_threads(threads);
  ChaosPartition split;
  for (NodeId id = 1; id <= config.n_a + config.n_b; ++id) {
    const bool in_a = id <= config.n_a;
    (in_a ? split.side_a : split.side_b).push_back(id);
    sim.add_process(
        std::make_unique<QuietWindowProcess>(id, in_a ? 1.0 : 0.0, config.decide_round));
  }
  if (config.partition_rounds > 0) {
    ChaosPhase cut{.first_round = 1, .last_round = config.partition_rounds, .partitions = {split}};
    sim.set_chaos(std::make_shared<ChaosSchedule>(ChaosPlan{{cut}}, 0));
  }

  PartitionResult result;
  result.all_decided = sim.run_until_all_correct_done(config.decide_round);
  std::optional<double> first;
  for (NodeId id : sim.member_ids()) {
    const auto decision = sim.get<QuietWindowProcess>(id)->decision();
    if (!decision.has_value()) continue;
    (id <= config.n_a ? result.decisions_a : result.decisions_b).push_back(*decision);
    if (!first.has_value()) first = decision;
    result.disagreement = result.disagreement || *decision != *first;
  }
  return result;
}

double semi_sync_disagreement_rate(std::size_t n_a, std::size_t n_b, Round delta,
                                   Round decide_round, int trials, std::uint64_t seed) {
  const Round low = (4 * delta + 4) / 5;  // ⌈0.8Δ⌉
  const auto span = static_cast<std::uint64_t>(delta - low + 1);
  int disagreements = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(t)));
    const Round cut = low + static_cast<Round>(rng.below(span));
    disagreements += run_partition_execution({n_a, n_b, cut, decide_round}).disagreement ? 1 : 0;
  }
  return trials == 0 ? 0.0 : static_cast<double>(disagreements) / trials;
}

}  // namespace idonly
