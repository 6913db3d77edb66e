#include "adversary/strategies.hpp"

#include <cassert>

namespace idonly {

// ---------------------------------------------------------------- Silent --
void SilentAdversary::on_round(RoundInfo, std::span<const Message>, std::vector<Outgoing>&) {}

// ----------------------------------------------------------------- Crash --
CrashAdversary::CrashAdversary(std::unique_ptr<Process> inner, Round crash_round)
    : ByzantineProcess(inner->id()), inner_(std::move(inner)), crash_round_(crash_round) {}

void CrashAdversary::on_round(RoundInfo round, std::span<const Message> inbox,
                              std::vector<Outgoing>& out) {
  if (round.local >= crash_round_) return;
  inner_->on_round(round, inbox, out);
}

// -------------------------------------------------------------- TwoFaced --
TwoFacedAdversary::TwoFacedAdversary(std::unique_ptr<Process> face_a,
                                     std::unique_ptr<Process> face_b,
                                     std::function<bool(NodeId)> side_a, AdversaryContext context)
    : ByzantineProcess(face_a->id()),
      face_a_(std::move(face_a)),
      face_b_(std::move(face_b)),
      side_a_(std::move(side_a)),
      all_ids_(std::move(context.all_ids)) {
  assert(face_a_->id() == face_b_->id() && "both faces impersonate the same id");
}

void TwoFacedAdversary::on_round(RoundInfo round, std::span<const Message> inbox,
                                 std::vector<Outgoing>& out) {
  // Both faces observe the full inbox (the adversary sees everything sent to
  // its id); their outputs are routed disjointly so recipient u only ever
  // sees one consistent persona.
  if (!all_ids_.empty()) {
    // Split the recipients into the two sides once, in all_ids order, at
    // the first round rather than in the constructor: one predicate call
    // per id is setup cost every scripted run would pay before its clock.
    for (NodeId id : all_ids_) (side_a_(id) ? ids_a_ : ids_b_).push_back(id);
    all_ids_ = {};
  }
  std::vector<Outgoing> out_a;
  std::vector<Outgoing> out_b;
  face_a_->on_round(round, inbox, out_a);
  face_b_->on_round(round, inbox, out_b);
  auto route_face = [&](std::vector<Outgoing>& face_out, bool to_side_a) {
    const std::vector<NodeId>& side = to_side_a ? ids_a_ : ids_b_;
    for (Outgoing& o : face_out) {
      if (o.to.has_value()) {
        if (side_a_(*o.to) == to_side_a) out.push_back(std::move(o));
      } else {
        // Expand the broadcast into unicasts to this face's side only.
        for (NodeId id : side) out.push_back(Outgoing{id, o.msg});
      }
    }
  };
  route_face(out_a, /*to_side_a=*/true);
  route_face(out_b, /*to_side_a=*/false);
}

// ----------------------------------------------------------- RandomNoise --
RandomNoiseAdversary::RandomNoiseAdversary(NodeId id, AdversaryContext context, Rng rng,
                                           double send_probability)
    : ByzantineProcess(id),
      context_(std::move(context)),
      rng_(rng),
      send_probability_(send_probability) {}

void RandomNoiseAdversary::on_round(RoundInfo, std::span<const Message>,
                                    std::vector<Outgoing>& out) {
  if (!rng_.chance(send_probability_)) return;
  // One to three random messages per round, broadcast or unicast.
  const auto count = 1 + rng_.below(3);
  for (std::uint64_t i = 0; i < count; ++i) {
    Message m;
    m.kind = static_cast<MsgKind>(rng_.below(16));
    // Subject: an existing id most of the time, occasionally a ghost id.
    if (!context_.all_ids.empty() && rng_.chance(0.8)) {
      m.subject = context_.all_ids[rng_.below(context_.all_ids.size())];
    } else {
      m.subject = 1'000'000 + rng_.below(1000);  // non-existent
    }
    m.value = rng_.chance(0.2) ? Value::bot() : Value::real(rng_.uniform(-100.0, 100.0));
    m.instance = static_cast<InstanceTag>(rng_.below(4));
    m.round_tag = static_cast<std::uint32_t>(rng_.below(64));
    if (rng_.chance(0.5) || context_.all_ids.empty()) {
      broadcast(out, m);
    } else {
      unicast(out, context_.all_ids[rng_.below(context_.all_ids.size())], m);
    }
  }
}

// ------------------------------------------------------------ ForgedEcho --
ForgedEchoAdversary::ForgedEchoAdversary(NodeId id, NodeId forged_source, Value forged_payload)
    : ByzantineProcess(id), forged_source_(forged_source), forged_payload_(forged_payload) {}

void ForgedEchoAdversary::on_round(RoundInfo round, std::span<const Message>,
                                   std::vector<Outgoing>& out) {
  // Announce ourselves (counts toward n_v — more weight for our echoes),
  // then flood the forged echo every round.
  if (round.local == 1) {
    broadcast(out, Message{.kind = MsgKind::kPresent});
  }
  Message echo;
  echo.kind = MsgKind::kEcho;
  echo.subject = forged_source_;
  echo.value = forged_payload_;
  broadcast(out, echo);
}

// ---------------------------------------------------------- RotorStuffer --
RotorStufferAdversary::RotorStufferAdversary(NodeId id, std::vector<NodeId> fake_ids,
                                             InstanceTag instance)
    : ByzantineProcess(id), fake_ids_(std::move(fake_ids)), instance_(instance) {}

void RotorStufferAdversary::on_round(RoundInfo round, std::span<const Message>,
                                     std::vector<Outgoing>& out) {
  if (round.local == 1) {
    Message init;
    init.kind = MsgKind::kInit;
    init.instance = instance_;
    broadcast(out, init);  // join the candidate pool ourselves
    return;
  }
  // Drip one fake candidate per round: every colluding stuffer echoes the
  // same fake id in the same round, maximizing the chance correct nodes
  // cross the n_v/3 relay threshold and produce a non-silent round.
  const std::size_t idx = static_cast<std::size_t>(round.local - 2);
  if (idx < fake_ids_.size()) {
    Message echo;
    echo.kind = MsgKind::kEcho;
    echo.subject = fake_ids_[idx];
    echo.instance = instance_;
    broadcast(out, echo);
  }
}

// ------------------------------------------------------------- VoteSplit --
VoteSplitAdversary::VoteSplitAdversary(NodeId id, AdversaryContext context)
    : ByzantineProcess(id), context_(std::move(context)) {}

void VoteSplitAdversary::on_round(RoundInfo round, std::span<const Message> inbox,
                                  std::vector<Outgoing>& out) {
  if (round.local <= 2) {
    // Participate in initialization so we count toward everyone's n_v.
    Message init;
    init.kind = round.local == 1 ? MsgKind::kInit : MsgKind::kPresent;
    broadcast(out, init);
    return;
  }
  // Mirror the phase traffic we observe: for every opinion-bearing kind seen
  // this round, send value 0 to the lower-id half and value 1 (or the
  // negated real) to the upper-id half of the correct nodes. This keeps both
  // camps just below/above quorum thresholds as long as the adversary has
  // enough mass — with n > 3f it never does.
  bool saw[3] = {false, false, false};
  for (const Message& m : inbox) {
    switch (m.kind) {
      case MsgKind::kInput: saw[0] = true; break;
      case MsgKind::kPrefer: saw[1] = true; break;
      case MsgKind::kStrongPrefer: saw[2] = true; break;
      default: break;
    }
  }
  const MsgKind kinds[3] = {MsgKind::kInput, MsgKind::kPrefer, MsgKind::kStrongPrefer};
  const std::size_t half = context_.correct_ids.size() / 2;
  for (int k = 0; k < 3; ++k) {
    if (!saw[k]) continue;
    for (std::size_t i = 0; i < context_.correct_ids.size(); ++i) {
      Message m;
      m.kind = kinds[k];
      m.value = Value::real(i < half ? 0.0 : 1.0);
      unicast(out, context_.correct_ids[i], m);
    }
  }
  // If anyone might treat us as coordinator, split the opinion too.
  for (std::size_t i = 0; i < context_.correct_ids.size(); ++i) {
    Message m;
    m.kind = MsgKind::kOpinion;
    m.value = Value::real(i < half ? 0.0 : 1.0);
    unicast(out, context_.correct_ids[i], m);
  }
}

// --------------------------------------------------------------- Whisper --
WhisperAdversary::WhisperAdversary(NodeId id, PairId pair, MsgKind kind, Value value,
                                   Round fire_round, std::vector<NodeId> targets)
    : ByzantineProcess(id),
      pair_(pair),
      kind_(kind),
      value_(value),
      fire_round_(fire_round),
      targets_(std::move(targets)) {}

void WhisperAdversary::on_round(RoundInfo round, std::span<const Message>,
                                std::vector<Outgoing>& out) {
  if (round.local == 1) {
    broadcast(out, Message{.kind = MsgKind::kInit});  // count toward n_v
    return;
  }
  if (round.local == fire_round_) {
    for (NodeId target : targets_) {
      Message m;
      m.kind = kind_;
      m.subject = pair_;
      m.value = value_;
      unicast(out, target, m);
    }
  }
}

// ---------------------------------------------------------------- Replay --
ReplayAdversary::ReplayAdversary(NodeId id, Round lag) : ByzantineProcess(id), lag_(lag) {}

void ReplayAdversary::on_round(RoundInfo round, std::span<const Message> inbox,
                               std::vector<Outgoing>& out) {
  if (round.local == 1) {
    broadcast(out, Message{.kind = MsgKind::kPresent});
  }
  recorded_[round.local].assign(inbox.begin(), inbox.end());
  const auto stale = recorded_.find(round.local - lag_);
  if (stale != recorded_.end()) {
    for (const Message& m : stale->second) {
      broadcast(out, m);  // sender is re-stamped with OUR id by the engine
    }
    recorded_.erase(stale);
  }
}

// ----------------------------------------------------------- EchoChamber --
EchoChamberAdversary::EchoChamberAdversary(NodeId id, AdversaryContext context)
    : ByzantineProcess(id), context_(std::move(context)) {}

void EchoChamberAdversary::on_round(RoundInfo round, std::span<const Message> inbox,
                                    std::vector<Outgoing>& out) {
  // Learn every node's current opinion from its input broadcasts.
  for (const Message& m : inbox) {
    if (m.kind == MsgKind::kInput && !m.value.is_bot()) last_opinion_[m.sender] = m.value;
  }
  if (round.local == 1) {
    broadcast(out, Message{.kind = MsgKind::kInit});  // count toward everyone's n_v
    return;
  }
  // From round 2 on, feed each correct node copies of its own opinion in
  // every phase position, plus a matching coordinator opinion in case we get
  // selected (an equivocating coordinator is part of this attack: it keeps
  // each camp on its own value through the resolve round). Nodes whose
  // opinion we have not observed yet get NOTHING — sending any default value
  // would push the network toward that value and *help* convergence.
  for (NodeId target : context_.correct_ids) {
    const auto it = last_opinion_.find(target);
    if (it == last_opinion_.end()) continue;
    for (MsgKind kind : {MsgKind::kInput, MsgKind::kPrefer, MsgKind::kStrongPrefer,
                         MsgKind::kOpinion}) {
      Message m;
      m.kind = kind;
      m.value = it->second;
      unicast(out, target, m);
    }
  }
}

// ---------------------------------------------------------- ExtremeValue --
ExtremeValueAdversary::ExtremeValueAdversary(NodeId id, AdversaryContext context, double lo,
                                             double hi)
    : ByzantineProcess(id), context_(std::move(context)), lo_(lo), hi_(hi) {}

void ExtremeValueAdversary::on_round(RoundInfo, std::span<const Message>,
                                     std::vector<Outgoing>& out) {
  // Pull the low half of the network further down and the high half further
  // up — the worst input pattern for the trimmed-mean rule.
  const std::size_t half = context_.correct_ids.size() / 2;
  for (std::size_t i = 0; i < context_.correct_ids.size(); ++i) {
    Message m;
    m.kind = MsgKind::kApproxValue;
    m.value = Value::real(i < half ? lo_ : hi_);
    unicast(out, context_.correct_ids[i], m);
  }
}

}  // namespace idonly
