// Rotor-coordinator (Alg. 2): Theorem 2 — every correct node terminates in
// O(n) rounds and a good round (common, correct coordinator) is witnessed
// before termination, with the opinion accepted the round after.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thresholds.hpp"
#include "core/rotor_coordinator.hpp"
#include "harness/runner.hpp"
#include "resilient_cells.hpp"

namespace idonly {
namespace {

ScenarioConfig config_for(std::size_t n_correct, std::size_t n_byz, AdversaryKind adversary,
                          std::uint64_t seed) {
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = n_byz;
  config.adversary = adversary;
  config.seed = seed;
  return config;
}

TEST(RotorCore, Round1EmitsInit) {
  RotorCore core(5);
  std::vector<Message> out;
  core.round1(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, MsgKind::kInit);
}

TEST(RotorCore, Round2EchoesEveryInitSender) {
  RotorCore core(5);
  std::vector<Message> inbox;
  for (NodeId id : {7u, 9u, 11u}) {
    Message m;
    m.sender = id;
    m.kind = MsgKind::kInit;
    inbox.push_back(m);
  }
  std::vector<Message> out;
  core.round2(inbox, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, MsgKind::kEcho);
  EXPECT_EQ(out[0].subject, 7u);
  EXPECT_EQ(out[2].subject, 11u);
}

TEST(RotorCore, CandidateAcceptedAtTwoThirdsAndSelectedInIdOrder) {
  RotorCore core(1);
  // Echoes for candidate 50 from 3 of 4 participants → 2/3 quorum.
  std::vector<Message> inbox;
  for (NodeId sender : {1u, 2u, 3u}) {
    Message m;
    m.sender = sender;
    m.kind = MsgKind::kEcho;
    m.subject = 50;
    inbox.push_back(m);
    Message m2 = m;
    m2.subject = 40;
    inbox.push_back(m2);
  }
  core.absorb(inbox);
  auto result = core.step(/*n_v=*/4, /*r=*/0);
  ASSERT_TRUE(result.coordinator.has_value());
  EXPECT_EQ(*result.coordinator, 40u) << "C_v is ordered by id; r=0 selects the smallest";
  EXPECT_FALSE(result.repeated);
  auto result2 = core.step(4, 1);
  EXPECT_EQ(*result2.coordinator, 50u);
  auto result3 = core.step(4, 2);
  EXPECT_TRUE(result3.repeated) << "r=2 wraps to C_v[0], already selected";
}

TEST(RotorCore, BelowOneThirdNeitherRelayedNorAccepted) {
  RotorCore core(1);
  Message m;
  m.sender = 9;
  m.kind = MsgKind::kEcho;
  m.subject = 50;
  std::vector<Message> inbox{m};
  core.absorb(inbox);
  auto result = core.step(/*n_v=*/8, /*r=*/0);
  EXPECT_TRUE(result.relay.empty());
  EXPECT_FALSE(result.coordinator.has_value());
}

TEST(RotorCore, OneThirdTriggersRelayOnly) {
  RotorCore core(1);
  std::vector<Message> inbox;
  for (NodeId sender : {1u, 2u}) {
    Message m;
    m.sender = sender;
    m.kind = MsgKind::kEcho;
    m.subject = 50;
    inbox.push_back(m);
  }
  core.absorb(inbox);
  auto result = core.step(/*n_v=*/6, /*r=*/0);  // 2 >= 6/3, 2 < 4
  ASSERT_EQ(result.relay.size(), 1u);
  EXPECT_EQ(result.relay[0].subject, 50u);
  EXPECT_TRUE(core.candidates().empty());
}

TEST(RotorCore, EmptyCandidateSetSelectsNobody) {
  RotorCore core(1);
  auto result = core.step(4, 0);
  EXPECT_FALSE(result.coordinator.has_value());
  EXPECT_FALSE(result.repeated);
}

// RotorCore's tallying before echoes for accepted candidates were dropped,
// kept verbatim as the reference for the differential test below.
class ReferenceRotorCore {
 public:
  explicit ReferenceRotorCore(InstanceTag instance) : instance_(instance) {}

  void absorb(std::span<const Message> inbox) {
    for (const Message& m : inbox) {
      if (m.kind == MsgKind::kEcho && m.instance == instance_ && m.value.is_bot()) {
        echoes_.add(m.subject, m.sender);
      }
    }
  }

  RotorCore::StepResult step(std::size_t n_v, std::int64_t r) {
    RotorCore::StepResult result;
    for (const auto& [candidate, senders] : echoes_.all()) {
      if (candidates_.contains(candidate)) continue;
      if (at_least_one_third(senders.size(), n_v)) {
        Message echo;
        echo.kind = MsgKind::kEcho;
        echo.subject = candidate;
        echo.instance = instance_;
        result.relay.push_back(echo);
      }
      if (at_least_two_thirds(senders.size(), n_v)) candidates_.insert(candidate);
    }
    if (!candidates_.empty()) {
      const std::size_t idx =
          static_cast<std::size_t>(r % static_cast<std::int64_t>(candidates_.size()));
      const NodeId p = candidates_.values()[idx];
      result.coordinator = p;
      if (!selected_.insert(p)) result.repeated = true;
    }
    return result;
  }

  [[nodiscard]] const std::vector<NodeId>& candidates() const noexcept {
    return candidates_.values();
  }
  [[nodiscard]] const FlatSet<NodeId>& selected() const noexcept { return selected_; }

 private:
  InstanceTag instance_;
  QuorumCounter<NodeId> echoes_;
  FlatSet<NodeId> candidates_;
  FlatSet<NodeId> selected_;
};

/// One round's echo inbox: each sender's subjects mostly ascend (as a
/// correct relay's do), but runs may be reversed, repeated, shuffled or
/// interleaved with other senders', and some echoes carry the wrong
/// instance, a non-⊥ value, another kind, or a subject nobody announced.
std::vector<Message> random_echo_inbox(Rng& rng, InstanceTag instance, std::size_t n_senders,
                                       std::size_t n_subjects) {
  std::vector<Message> inbox;
  for (NodeId sender = 1; sender <= n_senders; ++sender) {
    if (rng.chance(0.2)) continue;  // silent this round
    std::vector<NodeId> run;
    for (NodeId subject = 1; subject <= n_subjects; ++subject) {
      if (rng.chance(0.7)) run.push_back(subject * 10);
    }
    if (rng.chance(0.15)) run.push_back(rng.chance(0.5) ? 5 : 1'000'003);  // unknown
    if (rng.chance(0.2)) std::reverse(run.begin(), run.end());
    if (rng.chance(0.2) && !run.empty()) {
      run.insert(run.begin() + static_cast<std::ptrdiff_t>(rng.below(run.size())),
                 run[rng.below(run.size())]);
    }
    if (rng.chance(0.1)) rng.shuffle(run);
    for (NodeId subject : run) {
      Message m;
      m.sender = sender;
      m.kind = rng.chance(0.05) ? MsgKind::kInit : MsgKind::kEcho;
      m.subject = subject;
      m.instance = rng.chance(0.05) ? instance + 1 : instance;
      if (rng.chance(0.05)) m.value = Value::real(1.0);
      inbox.push_back(m);
    }
  }
  if (rng.chance(0.15)) {
    rng.shuffle(inbox);
  } else if (rng.chance(0.2)) {  // riffle the two halves: senders interleave
    std::vector<Message> riffled;
    const std::size_t half = inbox.size() / 2;
    for (std::size_t i = 0; i < half || half + i < inbox.size(); ++i) {
      if (i < half) riffled.push_back(inbox[i]);
      if (half + i < inbox.size()) riffled.push_back(inbox[half + i]);
    }
    inbox = std::move(riffled);
  }
  return inbox;
}

TEST(RotorCore, AcceptedCandidateSkipMatchesReferenceOnRandomInboxes) {
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    const InstanceTag instance = rng.chance(0.5) ? 0 : 3;
    const std::size_t n_senders = 3 + rng.below(8);
    const std::size_t n_subjects = 1 + rng.below(12);
    RotorCore core(1, instance);
    ReferenceRotorCore reference(instance);
    for (std::int64_t r = 0; r < 10; ++r) {
      const auto inbox = random_echo_inbox(rng, instance, n_senders, n_subjects);
      core.absorb(inbox);
      reference.absorb(inbox);
      const std::size_t n_v = n_senders + rng.below(3);
      const auto got = core.step(n_v, r);
      const auto want = reference.step(n_v, r);
      ASSERT_EQ(got.coordinator, want.coordinator) << "seed " << seed << " r " << r;
      ASSERT_EQ(got.repeated, want.repeated) << "seed " << seed << " r " << r;
      ASSERT_EQ(got.relay, want.relay) << "seed " << seed << " r " << r;
      ASSERT_EQ(core.candidates(), reference.candidates()) << "seed " << seed << " r " << r;
      ASSERT_EQ(core.selected(), reference.selected()) << "seed " << seed << " r " << r;
    }
  }
}

TEST(Rotor, AllCorrectTerminateWithGoodRound) {
  const auto run = run_rotor(config_for(7, 0, AdversaryKind::kNone, 1));
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.good_round_witnessed);
  EXPECT_TRUE(run.good_opinion_accepted);
  ASSERT_TRUE(run.first_good_round.has_value());
  EXPECT_EQ(*run.first_good_round, 0) << "with no faults the first selection is already good";
}

TEST(Rotor, TerminatesWithinLinearRounds) {
  for (std::size_t n_correct : {4u, 7u, 13u}) {
    const auto run = run_rotor(config_for(n_correct, 0, AdversaryKind::kNone, 2));
    EXPECT_TRUE(run.all_terminated);
    // Theorem 2: at most n selections; +2 init rounds +1 repeat round slack.
    EXPECT_LE(run.max_termination_round, static_cast<Round>(n_correct) + 4) << n_correct;
  }
}

using RotorSweepParam =
    std::tuple<std::size_t, std::size_t, AdversaryKind, std::uint64_t>;

class RotorSweep : public ::testing::TestWithParam<RotorSweepParam> {};

TEST_P(RotorSweep, Theorem2Holds) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  const auto run = run_rotor(config_for(n_correct, n_byz, adversary, seed));
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.good_round_witnessed);
  EXPECT_TRUE(run.good_opinion_accepted);
  // O(n) termination: |C_v| ≤ n and at most f late candidate insertions can
  // postpone the wrap-around, so 2n+6 is a safe linear envelope.
  EXPECT_LE(run.max_termination_round, 2 * static_cast<Round>(n_correct + n_byz) + 6);
}

INSTANTIATE_TEST_SUITE_P(
    Adversaries, RotorSweep,
    ::testing::ValuesIn(resilient_cells({4, 7, 10}, {1, 2},
                                        {AdversaryKind::kSilent, AdversaryKind::kNoise,
                                         AdversaryKind::kRotorStuffer, AdversaryKind::kTwoFaced,
                                         AdversaryKind::kCrash},
                                        {1, 2, 3})));

TEST(Rotor, StufferCannotInjectFakeCandidates) {
  // Fake ids echoed only by the f stuffers can never reach n_v/3 at a
  // correct node (Lemma 2), so candidate sets stay within real ids. We
  // verify via the run still terminating promptly and good round holding.
  const auto run = run_rotor(config_for(7, 2, AdversaryKind::kRotorStuffer, 4));
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.good_round_witnessed);
  EXPECT_LE(run.max_termination_round, 9 + 4);
}

}  // namespace
}  // namespace idonly
