// Byzantine renaming (appendix): all correct nodes terminate with identical
// id sets and assign themselves distinct names 1..|S|.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/rng.hpp"
#include "common/thresholds.hpp"
#include "core/participant_tracker.hpp"
#include "core/renaming.hpp"
#include "harness/scenario.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

struct RenamingRun {
  bool all_done = false;
  std::vector<std::set<NodeId>> id_sets;
  std::vector<std::size_t> names;
  Round rounds = 0;
};

RenamingRun run_renaming(std::size_t n_correct, std::size_t n_byz, AdversaryKind adversary,
                         std::uint64_t seed, Round max_rounds = 100) {
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = n_byz;
  config.adversary = adversary;
  config.seed = seed;
  const Scenario scenario = make_scenario(config);
  SyncSimulator sim;
  auto factory = [](NodeId id, std::size_t) { return std::make_unique<RenamingProcess>(id); };
  populate(sim, scenario, factory);
  RenamingRun run;
  run.all_done = sim.run_until_all_correct_done(max_rounds);
  run.rounds = sim.round();
  for (NodeId id : scenario.correct_ids) {
    auto* p = sim.get<RenamingProcess>(id);
    if (p == nullptr || !p->done()) continue;
    run.id_sets.push_back(p->id_set());
    if (p->new_name().has_value()) run.names.push_back(*p->new_name());
  }
  return run;
}

// RenamingProcess before echoes for ids already in S were skipped, its logic
// kept as the reference for the differential test below.
class ReferenceRenaming final : public Process {
 public:
  explicit ReferenceRenaming(NodeId self) : Process(self) {}

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    if (terminated_) return;
    tracker_.note(inbox);
    for (const Message& m : inbox) {
      if (m.kind == MsgKind::kEcho && m.value.is_bot()) echoes_.add(m.subject, m.sender);
      if (m.kind == MsgKind::kTerminate) terminates_.add(m.round_tag, m.sender);
    }
    if (round.local == 1) {
      broadcast(out, Message{.kind = MsgKind::kInit});
      return;
    }
    if (round.local == 2) {
      for (const Message& m : inbox) {
        if (m.kind != MsgKind::kInit) continue;
        broadcast(out, Message{.kind = MsgKind::kEcho, .subject = m.sender});
      }
      return;
    }
    const Round r = round.local - 2;
    const std::size_t n_v = tracker_.n_v();
    std::vector<Message> m_out;
    bool changed = false;
    for (const auto& [candidate, senders] : echoes_.all()) {
      if (s_.contains(candidate)) continue;
      if (at_least_one_third(senders.size(), n_v)) {
        m_out.push_back(Message{.kind = MsgKind::kEcho, .subject = candidate});
      }
      if (at_least_two_thirds(senders.size(), n_v)) {
        s_.insert(candidate);
        changed = true;
      }
    }
    if (changed) last_change_round_ = r;
    if (r >= 2 && last_change_round_ < r - 1) {
      m_out.push_back(
          Message{.kind = MsgKind::kTerminate, .round_tag = static_cast<std::uint32_t>(r - 1)});
    }
    for (const auto& [k, senders] : terminates_.all()) {
      if (at_least_one_third(senders.size(), n_v)) {
        m_out.push_back(Message{.kind = MsgKind::kTerminate, .round_tag = k});
      }
      if (at_least_two_thirds(senders.size(), n_v)) terminated_ = true;
    }
    std::sort(m_out.begin(), m_out.end(), [](const Message& a, const Message& b) {
      return std::tie(a.kind, a.subject, a.round_tag) < std::tie(b.kind, b.subject, b.round_tag);
    });
    m_out.erase(std::unique(m_out.begin(), m_out.end()), m_out.end());
    for (Message& m : m_out) broadcast(out, std::move(m));
  }

  [[nodiscard]] bool done() const override { return terminated_; }
  [[nodiscard]] const std::set<NodeId>& id_set() const noexcept { return s_; }

 private:
  ParticipantTracker tracker_;
  QuorumCounter<NodeId> echoes_;
  QuorumCounter<std::uint32_t> terminates_;
  std::set<NodeId> s_;
  Round last_change_round_ = 0;
  bool terminated_ = false;
};

TEST(RenamingProcess, InSetSkipMatchesReferenceOnRandomInboxes) {
  // Random init/echo/terminate inboxes with echoes for accepted and
  // unannounced ids, non-⊥ echoes and interleaved senders: every round's
  // outbox, S and termination must equal the reference's.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    const std::size_t n_senders = 3 + rng.below(8);
    RenamingProcess process(1);
    ReferenceRenaming reference(1);
    for (Round r = 1; r <= 12 && !reference.done(); ++r) {
      std::vector<Message> inbox;
      for (NodeId sender = 1; sender <= n_senders; ++sender) {
        if (rng.chance(0.2)) continue;
        if (rng.chance(0.3)) inbox.push_back(Message{.sender = sender, .kind = MsgKind::kInit});
        for (NodeId subject = 1; subject <= n_senders + 2; ++subject) {
          if (!rng.chance(0.6)) continue;
          Message echo{.sender = sender, .kind = MsgKind::kEcho, .subject = subject};
          if (rng.chance(0.05)) echo.value = Value::real(2.0);
          inbox.push_back(echo);
        }
        if (rng.chance(0.1)) {
          inbox.push_back(Message{.sender = sender,
                                  .kind = MsgKind::kTerminate,
                                  .round_tag = static_cast<std::uint32_t>(1 + rng.below(3))});
        }
      }
      if (rng.chance(0.3)) rng.shuffle(inbox);
      const RoundInfo round{r, r};
      std::vector<Outgoing> got;
      std::vector<Outgoing> want;
      process.on_round(round, inbox, got);
      reference.on_round(round, inbox, want);
      ASSERT_EQ(process.done(), reference.done()) << "seed " << seed << " round " << r;
      ASSERT_EQ(process.id_set(), reference.id_set()) << "seed " << seed << " round " << r;
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " round " << r;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].to, want[i].to);
        EXPECT_EQ(got[i].msg, want[i].msg) << "seed " << seed << " round " << r;
      }
    }
  }
}

TEST(Renaming, AllCorrectAgreeOnIdSet) {
  const auto run = run_renaming(7, 2, AdversaryKind::kSilent, 1);
  EXPECT_TRUE(run.all_done);
  ASSERT_EQ(run.id_sets.size(), 7u);
  for (const auto& s : run.id_sets) EXPECT_EQ(s, run.id_sets.front());
}

TEST(Renaming, NamesAreDistinctAndDense) {
  const auto run = run_renaming(7, 2, AdversaryKind::kSilent, 2);
  ASSERT_EQ(run.names.size(), 7u);
  std::set<std::size_t> unique(run.names.begin(), run.names.end());
  EXPECT_EQ(unique.size(), 7u) << "names must be distinct";
  // Names live in 1..|S| where |S| ≤ n (correct ids always included,
  // announcing Byzantine ids may be too).
  for (std::size_t name : run.names) {
    EXPECT_GE(name, 1u);
    EXPECT_LE(name, 9u);
  }
}

TEST(Renaming, SilentByzantineExcludedFromS) {
  const auto run = run_renaming(7, 2, AdversaryKind::kSilent, 3);
  ASSERT_FALSE(run.id_sets.empty());
  EXPECT_EQ(run.id_sets.front().size(), 7u) << "silent nodes never enter S";
}

TEST(Renaming, TerminatesWithinLinearRounds) {
  // Appendix theorem: O(f) rounds — 4f+3 loop rounds plus constants.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto run = run_renaming(10, 3, AdversaryKind::kNoise, seed);
    EXPECT_TRUE(run.all_done) << seed;
    EXPECT_LE(run.rounds, 4 * 3 + 3 + 8) << seed;
  }
}

class RenamingSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, AdversaryKind, std::uint64_t>> {};

TEST_P(RenamingSweep, ConsistentRenaming) {
  const auto [n_correct, adversary, seed] = GetParam();
  const auto run = run_renaming(n_correct, 2, adversary, seed);
  EXPECT_TRUE(run.all_done);
  ASSERT_EQ(run.id_sets.size(), n_correct);
  for (const auto& s : run.id_sets) EXPECT_EQ(s, run.id_sets.front());
  std::set<std::size_t> unique(run.names.begin(), run.names.end());
  EXPECT_EQ(unique.size(), n_correct);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RenamingSweep,
    ::testing::Combine(::testing::Values<std::size_t>(7, 10, 13),
                       ::testing::Values(AdversaryKind::kSilent, AdversaryKind::kNoise,
                                         AdversaryKind::kCrash, AdversaryKind::kTwoFaced),
                       ::testing::Values<std::uint64_t>(1, 2)));

}  // namespace
}  // namespace idonly
