#include "core/total_order.hpp"

#include <algorithm>

namespace idonly {

TotalOrderProcess::TotalOrderProcess(NodeId self, bool founder)
    : Process(self), founder_(founder) {
  members_.insert(self);  // S = {v} initially
}

bool TotalOrderProcess::done() const { return announced_leave_ && live_machines_ == 0; }

std::size_t TotalOrderProcess::live_instances() const noexcept { return live_machines_; }

void TotalOrderProcess::on_round(RoundInfo round, std::span<const Message> inbox,
                                 std::vector<Outgoing>& out) {
  // Scheduled S-additions become effective at the start of the round where
  // the joiner's own main loop begins (see header note). Keys are global
  // rounds; entries scheduled for earlier rounds (we joined late) apply too.
  for (auto it = scheduled_adds_.begin();
       it != scheduled_adds_.end() && it->first <= round.global;) {
    for (NodeId id : it->second) members_.insert(id);
    it = scheduled_adds_.erase(it);
  }

  if (round.local == 1) {
    // "If v wants to participate: broadcast present."
    broadcast(out, Message{.kind = MsgKind::kPresent});
    return;
  }

  if (!joined_) {
    // Discovery of concurrent joiners (and, for founders, of each other).
    for (const Message& m : inbox) {
      if (m.kind == MsgKind::kPresent) {
        if (founder_) {
          members_.insert(m.sender);  // bootstrap: all founders align at round 3
        } else {
          scheduled_adds_[round.global + 2].push_back(m.sender);
        }
      } else if (m.kind == MsgKind::kAbsent) {
        members_.erase(m.sender);
      }
    }
    if (founder_) {
      // r = 0 here; the first main-loop round (local 3) increments it to 1.
      joined_ = true;
      return;
    }
    // Joiner: wait for the ack round (local round 3): adopt majority ack
    // round + 1; S = ack senders (plus self and concurrent joiners).
    std::map<std::uint32_t, std::size_t> votes;
    for (const Message& m : inbox) {
      if (m.kind != MsgKind::kAck) continue;
      votes[m.round_tag] += 1;
      members_.insert(m.sender);
    }
    if (votes.empty()) return;  // keep waiting (e.g. acks delayed by churn)
    auto majority = votes.begin();
    for (auto it = votes.begin(); it != votes.end(); ++it) {
      if (it->second >= majority->second) majority = it;  // ties → larger round
    }
    r_ = static_cast<Round>(majority->first) + 1;
    joined_ = true;
    return;
  }

  main_loop_round(round, inbox, out);
}

void TotalOrderProcess::main_loop_round(RoundInfo round, std::span<const Message> inbox,
                                        std::vector<Outgoing>& out) {
  r_ += 1;

  // Membership traffic and event collection.
  inputs_.clear();
  for (const Message& m : inbox) {
    switch (m.kind) {
      case MsgKind::kPresent: {
        Message ack;
        ack.kind = MsgKind::kAck;
        ack.round_tag = static_cast<std::uint32_t>(r_);
        unicast(out, m.sender, ack);
        // Effective two rounds out — the joiner's loop alignment.
        scheduled_adds_[round.global + 2].push_back(m.sender);
        break;
      }
      case MsgKind::kAbsent:
        members_.erase(m.sender);
        break;
      case MsgKind::kEvent:
        if (members_.contains(m.sender) && !m.value.is_bot() &&
            m.round_tag == static_cast<std::uint32_t>(r_ - 1)) {
          inputs_.push_back(InputPair{m.sender, m.value});
        }
        break;
      default:
        break;
    }
  }

  const bool announce_now = leaving_ && !announced_leave_;
  if (announce_now) {
    broadcast(out, Message{.kind = MsgKind::kAbsent});
    announced_leave_ = true;
  }

  // Broadcast one witnessed event (tagged with the current round) unless we
  // are on the way out.
  if (!announced_leave_ && !pending_events_.empty()) {
    Message ev;
    ev.kind = MsgKind::kEvent;
    ev.value = Value::real(pending_events_.front());
    ev.round_tag = static_cast<std::uint32_t>(r_);
    pending_events_.pop_front();
    broadcast(out, ev);
  }

  // Start the parallel-consensus instance for this round with the recorded
  // membership. A leaver still starts the instance in its announcement round
  // (everyone else's S for this round still contains it) but none after.
  if (!announced_leave_ || announce_now) {
    instances_.push_back(InstanceRecord{
        r_, members_.size(),
        std::make_unique<ParallelConsensusMachine>(
            id(), static_cast<InstanceTag>(r_),
            std::vector<InputPair>(inputs_.begin(), inputs_.end()), members_),
        {}});
    live_machines_ += 1;
  }

  // Drive every live machine with its own bucket of this round's inbox. The
  // index is built in one pass and kept per worker thread (each node's step
  // runs on one thread), so no process holds a copy of its inbox. A machine
  // that terminates leaves its outputs in its record and is freed.
  thread_local TaggedInbox index;
  live_tags_.clear();
  for (const InstanceRecord& record : instances_) {
    if (record.machine != nullptr) live_tags_.push_back(record.machine->tag());
  }
  index.build(inbox, live_tags_);
  for (InstanceRecord& record : instances_) {
    if (record.machine == nullptr) continue;
    machine_out_.clear();
    record.machine->on_round(index.bucket(record.machine->tag()), index.senders(), machine_out_);
    for (Message& m : machine_out_) broadcast(out, std::move(m));
    if (record.machine->terminated()) {
      record.outputs = record.machine->outputs();
      record.machine.reset();
      live_machines_ -= 1;
    }
  }

  refresh_chain();
}

void TotalOrderProcess::refresh_chain() {
  // Round r' is final once r − r' > 5·|S^{r'}|/2 + 2  ⇔  2(r − r') > 5|S| + 4.
  // Finalization happens strictly in instance order (the chain is a prefix),
  // so each newly final instance's outputs extend the chain at its end, and
  // its record is dropped.
  const std::size_t previous_length = chain_.size();
  while (!instances_.empty()) {
    const InstanceRecord& record = instances_.front();
    const bool final_round = 2 * (r_ - record.round) > 5 * static_cast<Round>(record.s_size) + 4;
    if (!final_round || record.machine != nullptr) break;  // prefix ends here
    for (const OutputPair& pair : record.outputs) {
      chain_.push_back(ChainEntry{record.round, pair.id, pair.value.real_or(0.0)});
    }
    finalized_upto_ = record.round;
    instances_.pop_front();
  }
  if (observer_ != nullptr && chain_.size() > previous_length) {
    observer_->on_event({ProtocolEvent::Type::kChainExtended, id(), r_,
                         Value::real(chain_.back().event), chain_.back().witness,
                         static_cast<std::int64_t>(chain_.size())});
  }
}

}  // namespace idonly
