// Long-horizon soak tests: hundreds of protocol rounds with continuous
// traffic and periodic churn — resource bounds (instance GC), chain
// integrity, and state-machine stability over time.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "adversary/strategies.hpp"
#include "common/rng.hpp"
#include "core/total_order.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

TEST(Soak, LedgerTwoHundredRoundsWithChurnAndNoise) {
  SyncSimulator sim;
  std::vector<NodeId> members{11, 22, 33, 44, 55, 66, 77};
  for (NodeId id : members) {
    sim.add_process(std::make_unique<TotalOrderProcess>(id, /*founder=*/true));
  }
  AdversaryContext context{members, members};
  sim.add_process(std::make_unique<RandomNoiseAdversary>(901, context, Rng(17)));
  sim.add_process(std::make_unique<SilentAdversary>(902));
  sim.run_rounds(3);
  auto node = [&sim](NodeId id) { return sim.get<TotalOrderProcess>(id); };

  Rng rng(99);
  NodeId next_joiner = 1000;
  int events = 0;
  std::vector<NodeId> stable = members;  // the five founders we never remove
  stable.resize(5);
  std::vector<NodeId> revolving{66, 77};
  for (int round = 0; round < 200; ++round) {
    // Continuous traffic from stable members.
    if (round % 2 == 0) {
      node(stable[rng.below(stable.size())])->submit_event(static_cast<double>(events++));
    }
    // Periodic churn on the revolving seats.
    if (round % 40 == 20 && !revolving.empty()) {
      if (auto* leaver = node(revolving.front()); leaver != nullptr) leaver->request_leave();
      revolving.erase(revolving.begin());
    }
    if (round % 40 == 35) {
      sim.add_process(std::make_unique<TotalOrderProcess>(++next_joiner, /*founder=*/false));
      revolving.push_back(next_joiner);
    }
    sim.step();
  }
  sim.run_rounds(60);  // drain

  // Chain grew with the traffic and stayed prefix-consistent.
  const auto& reference = node(stable[0])->chain();
  EXPECT_GT(reference.size(), 80u);
  for (NodeId id : stable) {
    const auto& chain = node(id)->chain();
    const std::size_t k = std::min(chain.size(), reference.size());
    for (std::size_t e = 0; e < k; ++e) {
      ASSERT_EQ(chain[e], reference[e]) << "divergence at " << e << " node " << id;
    }
    // Instance GC held: retained machines bounded by the finality lag.
    EXPECT_LE(node(id)->retained_machines(), 30u) << id;
  }
  // Events from stable members are strictly ordered by submission index.
  int last_seen = -1;
  for (const auto& entry : reference) {
    if (entry.event < 100000.0) {
      EXPECT_GT(static_cast<int>(entry.event), last_seen - 200) << "sanity";
      last_seen = static_cast<int>(entry.event);
    }
  }
}

TEST(Soak, TotalOrderHundredsOfSubmissionsEachFinalizedOnceEverywhere) {
  SyncSimulator sim;
  const std::vector<NodeId> members{10, 20, 30, 40, 50};
  for (NodeId id : members) {
    sim.add_process(std::make_unique<TotalOrderProcess>(id, /*founder=*/true));
  }
  sim.run_rounds(3);
  auto node = [&sim](NodeId id) { return sim.get<TotalOrderProcess>(id); };

  // One submission per round, each from a random member and each distinct.
  Rng rng(5);
  const int kSubmissions = 150;
  for (int i = 0; i < kSubmissions; ++i) {
    node(members[rng.below(members.size())])->submit_event(static_cast<double>(i));
    sim.step();
  }
  sim.run_rounds(50);  // drain

  const auto& reference = node(members[0])->chain();
  for (NodeId id : members) EXPECT_EQ(node(id)->chain(), reference) << id;
  std::map<double, int> seen;
  for (const auto& entry : reference) ++seen[entry.event];
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kSubmissions));
  for (int i = 0; i < kSubmissions; ++i) {
    EXPECT_EQ(seen[static_cast<double>(i)], 1) << "event " << i;
  }
}

}  // namespace
}  // namespace idonly
