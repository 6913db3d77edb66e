#include "core/rotor_coordinator.hpp"

#include <algorithm>
#include <utility>

#include "common/thresholds.hpp"

namespace idonly {

void RotorCore::round1(std::vector<Message>& out) const {
  Message init;
  init.kind = MsgKind::kInit;
  init.instance = instance_;
  out.push_back(init);
}

void RotorCore::round2(std::span<const Message> inbox, std::vector<Message>& out) const {
  for (const Message& m : inbox) {
    if (m.kind != MsgKind::kInit || m.instance != instance_) continue;
    Message echo;
    echo.kind = MsgKind::kEcho;
    echo.subject = m.sender;  // candidate id — taken from the unforgeable sender stamp
    echo.instance = instance_;
    out.push_back(echo);
  }
}

void RotorCore::absorb(std::span<const Message> inbox) {
  // Echoes for candidates already in C_v are dropped: step() skips those
  // keys, so their tallies are never read again. `cur` is lower_bound(C_v,
  // previous subject); each sender names its subjects in ascending order, so
  // the next subject is almost always at `cur` or `cur + 1`. A subject that
  // goes backwards (next sender, or a Byzantine order) restarts the search.
  // Only an exact hit is skipped, so a misplaced cursor could cost a missed
  // skip, never a lost echo.
  const auto tallied = [this](const Message& m) {
    return m.kind == MsgKind::kEcho && m.instance == instance_ && m.value.is_bot();
  };
  // A new candidate's sender set is sized once for every echoing sender of
  // this inbox: one pass counts the sender runs (the inbox is grouped by
  // sender), made only when some candidate is new.
  std::size_t echoers = 0;
  const auto count_echoers = [&] {
    if (echoers == 0) {
      const Message* previous = nullptr;
      for (const Message& m : inbox) {
        if (!tallied(m)) continue;
        if (previous == nullptr || previous->sender != m.sender) echoers += 1;
        previous = &m;
      }
    }
    return echoers;
  };
  const std::vector<NodeId>& accepted = candidates_.values();
  auto cur = accepted.begin();
  for (const Message& m : inbox) {
    if (!tallied(m)) continue;
    const NodeId subject = m.subject;
    if (cur != accepted.begin() && subject <= *(cur - 1)) {
      cur = std::lower_bound(accepted.begin(), cur, subject);
    } else if (cur != accepted.end() && *cur < subject) {
      ++cur;
      if (cur != accepted.end() && *cur < subject) {
        cur = std::lower_bound(cur + 1, accepted.end(), subject);
      }
    }
    if (cur != accepted.end() && *cur == subject) continue;
    echoes_.add(subject, m.sender, count_echoers);
  }
}

RotorCore::StepResult RotorCore::step(std::size_t n_v, std::int64_t r) {
  StepResult result;

  // Candidate maintenance in reliable-broadcast fashion (Alg. 2 lines 8–11).
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

  // Selection: p = C_v[r mod |C_v|] (Alg. 2 line 12).
  if (!candidates_.empty()) {
    const std::size_t idx =
        static_cast<std::size_t>(r % static_cast<std::int64_t>(candidates_.size()));
    const NodeId p = candidates_.values()[idx];
    result.coordinator = p;
    if (!selected_.insert(p)) {
      result.repeated = true;  // caller decides whether to terminate
    }
  }
  return result;
}

// ---------------------------------------------------------------------------

RotorProcess::RotorProcess(NodeId self, Value opinion)
    : Process(self), opinion_(opinion), core_(self) {}

void RotorProcess::on_round(RoundInfo round, std::span<const Message> inbox,
                            std::vector<Outgoing>& out) {
  if (terminated_) return;
  tracker_.note(inbox);
  core_.absorb(inbox);

  std::vector<Message> msgs;
  if (round.local == 1) {
    core_.round1(msgs);
  } else if (round.local == 2) {
    core_.round2(inbox, msgs);
  } else {
    const std::int64_t r = round.local - 3;  // rotor rounds are 0-based
    RoundRecord record;
    record.rotor_round = r;

    // Accept the previous coordinator's opinion (Alg. 2 lines 14–16): this
    // happens BEFORE the termination check, so the opinion from the last
    // distinct coordinator still lands.
    if (prev_coordinator_.has_value()) {
      for (const Message& m : inbox) {
        if (m.kind == MsgKind::kOpinion && m.sender == *prev_coordinator_) {
          record.accepted_opinion = m.value;
          record.accepted_from = m.sender;
          if (observer_ != nullptr) {
            observer_->on_event({ProtocolEvent::Type::kGoodOpinionAccepted, id(), round.local,
                                 m.value, m.sender, r});
          }
          break;
        }
      }
    }

    RotorCore::StepResult result = core_.step(tracker_.n_v(), r);
    record.selected = result.coordinator;
    msgs = std::move(result.relay);
    if (observer_ != nullptr && result.coordinator.has_value()) {
      observer_->on_event({ProtocolEvent::Type::kCoordinatorSelected, id(), round.local, Value{},
                           *result.coordinator, r});
    }

    if (result.repeated) {
      history_.push_back(record);
      terminated_ = true;
      return;  // break — B_v of this round is not sent (matches Alg. 2)
    }
    prev_coordinator_ = result.coordinator;
    if (result.coordinator == id()) {
      Message op;
      op.kind = MsgKind::kOpinion;
      op.value = opinion_;
      msgs.push_back(op);
    }
    history_.push_back(record);
  }

  for (Message& m : msgs) broadcast(out, std::move(m));
}

}  // namespace idonly
