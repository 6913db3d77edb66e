#include "core/parallel_consensus.hpp"

#include <algorithm>
#include <utility>

#include "common/thresholds.hpp"

namespace idonly {

namespace {
Message pair_msg(MsgKind kind, InstanceTag tag, PairId pair, const Value& v) {
  Message m;
  m.kind = kind;
  m.subject = pair;
  m.instance = tag;
  m.value = v;
  return m;
}

/// Looks pair ids up in a machine's instance map. One sender names its pairs
/// in ascending order (a machine walks its instances in id order), so the
/// next id is almost always at the finger or just past it.
template <typename Map>
class PairFinger {
 public:
  explicit PairFinger(Map& map) : map_(map), it_(map.begin()) {}

  /// The entry for `id`, or null.
  typename Map::mapped_type* find(PairId id) {
    if (it_ != map_.end() && it_->first < id) ++it_;
    if (it_ == map_.end() || it_->first != id) it_ = map_.lower_bound(id);
    return it_ != map_.end() && it_->first == id ? &it_->second : nullptr;
  }

 private:
  Map& map_;
  typename Map::iterator it_;
};

/// A per-sender verdict, checked once per run of equal senders: a bucket is
/// grouped by sender.
template <typename Check>
class PerSenderRun {
 public:
  explicit PerSenderRun(Check check) : check_(std::move(check)) {}

  bool operator()(NodeId sender) {
    if (!checked_ || sender != sender_) {
      checked_ = true;
      sender_ = sender;
      verdict_ = check_(sender);
    }
    return verdict_;
  }

 private:
  Check check_;
  bool checked_ = false;
  NodeId sender_ = 0;
  bool verdict_ = false;
};
}  // namespace

void TaggedInbox::build(std::span<const Message> inbox, std::span<const InstanceTag> live_tags) {
  tags_.assign(live_tags.begin(), live_tags.end());
  if (buckets_.size() < tags_.size()) buckets_.resize(tags_.size());
  for (std::vector<Message>& bucket : buckets_) bucket.clear();
  senders_.clear();
  // Senders arrive grouped and ascending from every engine; any other order
  // is sorted once at the end.
  bool ascending = true;
  std::size_t slot = 0;  // finger: one sender's messages run through the tags in order
  for (const Message& m : inbox) {
    if (senders_.empty() || senders_.back() != m.sender) {
      ascending = ascending && (senders_.empty() || senders_.back() < m.sender);
      senders_.push_back(m.sender);
    }
    if (slot >= tags_.size() || tags_[slot] != m.instance) {
      slot = static_cast<std::size_t>(std::lower_bound(tags_.begin(), tags_.end(), m.instance) -
                                      tags_.begin());
      if (slot == tags_.size() || tags_[slot] != m.instance) continue;
    }
    buckets_[slot].push_back(m);
  }
  if (!ascending) {
    std::sort(senders_.begin(), senders_.end());
    senders_.erase(std::unique(senders_.begin(), senders_.end()), senders_.end());
  }
}

std::span<const Message> TaggedInbox::bucket(InstanceTag tag) const {
  const auto it = std::lower_bound(tags_.begin(), tags_.end(), tag);
  if (it == tags_.end() || *it != tag) return {};
  return buckets_[static_cast<std::size_t>(it - tags_.begin())];
}

ParallelConsensusMachine::ParallelConsensusMachine(
    NodeId self, InstanceTag tag, std::vector<InputPair> inputs,
    std::optional<FlatSet<NodeId>> membership_restriction)
    : self_(self),
      tag_(tag),
      pending_inputs_(std::move(inputs)),
      restriction_(std::move(membership_restriction)),
      rotor_(self, tag) {}

bool ParallelConsensusMachine::accepts(NodeId sender) const {
  if (restriction_.has_value() && !restriction_->contains(sender)) return false;
  if (membership_frozen_ && !membership_.knows(sender)) return false;
  return true;
}

ParallelConsensusMachine::Instance& ParallelConsensusMachine::activate(PairId id, Value initial) {
  auto [it, inserted] = instances_.try_emplace(id);
  if (inserted) {
    it->second.x = initial;
    undecided_ += 1;
  }
  return it->second;
}

void ParallelConsensusMachine::adopt_unknown(std::span<const Message> tagged, MsgKind kind) {
  PairFinger finger(instances_);
  PerSenderRun accepted([this](NodeId sender) { return accepts(sender); });
  for (const Message& m : tagged) {
    if (m.kind != kind || !accepted(m.sender) || finger.find(m.subject) != nullptr) continue;
    activate(m.subject, Value::bot()).tallying = true;
  }
}

void ParallelConsensusMachine::mark_live_for_tally() {
  for (auto& [id, inst] : instances_) {
    if (inst.terminated) continue;
    inst.tally.clear();
    inst.tallying = true;
  }
}

template <typename Fill>
void ParallelConsensusMachine::tally_marked(std::span<const Message> tagged, MsgKind kind,
                                            std::optional<MsgKind> heard_marker, Fill fill) {
  PairFinger finger(instances_);
  PerSenderRun accepted([this](NodeId sender) { return accepts(sender); });
  for (const Message& m : tagged) {
    if (m.kind != kind && m.kind != heard_marker) continue;
    if (!accepted(m.sender)) continue;
    Instance* inst = finger.find(m.subject);
    if (inst == nullptr || !inst->tallying) continue;
    // An explicit "no quorum" marker only marks its sender heard, so the
    // fill rule below skips that member.
    if (m.kind == kind) inst->tally.add(m.value, m.sender);
    inst->heard.insert(m.sender);
  }
  const std::vector<NodeId>& members = membership_.ids().values();
  for (auto& [id, inst] : instances_) {
    if (!inst.tallying) continue;
    inst.tallying = false;
    if (const std::optional<Value> value = fill(inst); value.has_value()) {
      // Both lists ascend: one merge walk finds the silent members.
      auto heard = inst.heard.begin();
      for (NodeId member : members) {
        while (heard != inst.heard.end() && *heard < member) ++heard;
        if (heard == inst.heard.end() || *heard != member) inst.tally.add(*value, member);
      }
    }
    inst.heard.clear();
  }
}

void ParallelConsensusMachine::phase_round_1(std::vector<Message>& out) {
  // Own input pairs activate their instances at the start of phase 1.
  for (const InputPair& input : pending_inputs_) activate(input.id, input.value);
  pending_inputs_.clear();
  for (auto& [id, inst] : instances_) {
    if (inst.terminated) continue;
    if (!inst.x.is_bot()) out.push_back(pair_msg(MsgKind::kInput, tag_, id, inst.x));
    inst.my_last_prefer.reset();
    inst.my_last_strongpref.reset();
    inst.tally.clear();
  }
  phase_coordinator_.reset();
}

void ParallelConsensusMachine::phase_round_2(std::span<const Message> tagged, std::int64_t phase,
                                             std::vector<Message>& out) {
  // Late adoption: an id first heard via id:input in round 2 of phase 1
  // starts an instance here with opinion ⊥.
  if (phase == 1) adopt_unknown(tagged, MsgKind::kInput);
  // Fill rule: phase 1 → input(⊥) for silent members (first hearing of the
  // type); later phases → my own current opinion (what I broadcast — or
  // stayed silent with — in the previous round).
  mark_live_for_tally();
  tally_marked(tagged, MsgKind::kInput, std::nullopt,
               [phase](const Instance& inst) -> std::optional<Value> {
                 return phase == 1 ? Value::bot() : inst.x;
               });
  for (auto& [id, inst] : instances_) {
    if (inst.terminated) continue;
    const auto best = inst.tally.best();
    if (best.has_value() && at_least_two_thirds(best->second, membership_.n_v())) {
      out.push_back(pair_msg(MsgKind::kPrefer, tag_, id, best->first));
      inst.my_last_prefer = best->first;
    } else {
      out.push_back(pair_msg(MsgKind::kNoPreference, tag_, id, Value::bot()));
      inst.my_last_prefer.reset();
    }
  }
}

void ParallelConsensusMachine::phase_round_3(std::span<const Message> tagged, std::int64_t phase,
                                             std::vector<Message>& out) {
  if (phase == 1) adopt_unknown(tagged, MsgKind::kPrefer);
  mark_live_for_tally();
  tally_marked(tagged, MsgKind::kPrefer, MsgKind::kNoPreference,
               [phase](const Instance& inst) -> std::optional<Value> {
                 return phase == 1 ? std::optional<Value>(Value::bot()) : inst.my_last_prefer;
               });
  for (auto& [id, inst] : instances_) {
    if (inst.terminated) continue;
    const auto best = inst.tally.best();
    const std::size_t n_v = membership_.n_v();
    if (best.has_value() && at_least_one_third(best->second, n_v)) inst.x = best->first;
    if (best.has_value() && at_least_two_thirds(best->second, n_v)) {
      out.push_back(pair_msg(MsgKind::kStrongPrefer, tag_, id, best->first));
      inst.my_last_strongpref = best->first;
    } else {
      out.push_back(pair_msg(MsgKind::kNoStrongPref, tag_, id, Value::bot()));
      inst.my_last_strongpref.reset();
    }
  }
}

void ParallelConsensusMachine::phase_round_4(std::span<const Message> tagged, std::int64_t phase,
                                             std::vector<Message>& out) {
  // Strongprefers sent in round 3 arrive here; collect them per instance.
  // Ids first heard via strongprefer at the rotor round are discarded (they
  // become adoption triggers only in round 5).
  mark_live_for_tally();
  tally_marked(tagged, MsgKind::kStrongPrefer, MsgKind::kNoStrongPref,
               [phase](const Instance& inst) -> std::optional<Value> {
                 return phase == 1 ? std::optional<Value>(Value::bot()) : inst.my_last_strongpref;
               });
  // One shared rotor step per phase; the coordinator publishes its opinion
  // for every live instance.
  auto result = rotor_.step(membership_.n_v(), phase - 1);
  phase_coordinator_ = result.coordinator;
  for (Message& m : result.relay) out.push_back(std::move(m));
  if (result.coordinator == self_) {
    for (auto& [id, inst] : instances_) {
      if (!inst.terminated) out.push_back(pair_msg(MsgKind::kOpinion, tag_, id, inst.x));
    }
  }
}

void ParallelConsensusMachine::phase_round_5(std::span<const Message> tagged, std::int64_t phase) {
  // Late adoption via strongprefer (round 5 of phase 1 only): the node joins,
  // fills strongprefer(⊥) for every silent member, and — since only
  // Byzantine nodes ever sent anything for this id — terminates without
  // output below. The instances that were live in round 4 keep its tally.
  if (phase == 1) {
    adopt_unknown(tagged, MsgKind::kStrongPrefer);
    tally_marked(tagged, MsgKind::kStrongPrefer, MsgKind::kNoStrongPref,
                 [](const Instance&) -> std::optional<Value> { return Value::bot(); });
  }
  // The coordinator's first opinion on each live instance.
  if (phase_coordinator_.has_value() && accepts(*phase_coordinator_)) {
    PairFinger finger(instances_);
    for (const Message& m : tagged) {
      if (m.kind != MsgKind::kOpinion || m.sender != *phase_coordinator_) continue;
      Instance* inst = finger.find(m.subject);
      if (inst != nullptr && !inst->terminated && !inst->coordinator_opinion.has_value()) {
        inst->coordinator_opinion = m.value;
      }
    }
  }
  for (auto& [id, inst] : instances_) {
    if (inst.terminated) continue;
    const std::optional<Value> coordinator_opinion = std::exchange(inst.coordinator_opinion, {});
    const auto best = inst.tally.best();
    const std::size_t n_v = membership_.n_v();
    const std::size_t best_count = best.has_value() ? best->second : 0;
    if (less_than_one_third(best_count, n_v)) {
      if (coordinator_opinion.has_value()) inst.x = *coordinator_opinion;
    }
    if (best.has_value() && at_least_two_thirds(best_count, n_v)) {
      inst.terminated = true;
      inst.decided = best->first;
      undecided_ -= 1;
    }
  }
}

void ParallelConsensusMachine::on_round(std::span<const Message> tagged,
                                        std::span<const NodeId> senders,
                                        std::vector<Message>& out) {
  local_round_ += 1;
  rotor_.absorb(tagged);
  if (!membership_frozen_) {
    for (NodeId sender : senders) {
      if (!restriction_.has_value() || restriction_->contains(sender)) membership_.note(sender);
    }
  }

  if (local_round_ == 1) {
    rotor_.round1(out);
    return;
  }
  if (local_round_ == 2) {
    std::vector<Message> echoes;
    rotor_.round2(tagged, echoes);
    for (Message& m : echoes) {
      if (!restriction_.has_value() || restriction_->contains(m.subject)) out.push_back(m);
    }
    return;
  }
  if (!membership_frozen_) {
    membership_.note(self_);  // self always counts (broadcast is self-inclusive)
    membership_frozen_ = true;
  }

  const std::int64_t phase = (local_round_ - 3) / 5 + 1;
  const std::int64_t phase_round = (local_round_ - 3) % 5 + 1;
  switch (phase_round) {
    case 1: phase_round_1(out); break;
    case 2: phase_round_2(tagged, phase, out); break;
    case 3: phase_round_3(tagged, phase, out); break;
    case 4: phase_round_4(tagged, phase, out); break;
    case 5: phase_round_5(tagged, phase); break;
    default: break;
  }
}

bool ParallelConsensusMachine::terminated() const noexcept {
  // No new instance can appear after phase 1 (local rounds 3..7), and every
  // known instance must have decided.
  return local_round_ >= 7 && undecided_ == 0;
}

std::vector<OutputPair> ParallelConsensusMachine::outputs() const {
  std::vector<OutputPair> out;
  for (const auto& [id, inst] : instances_) {
    if (inst.terminated && inst.decided.has_value() && !inst.decided->is_bot()) {
      out.push_back(OutputPair{id, *inst.decided});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

ParallelConsensusProcess::ParallelConsensusProcess(NodeId self, std::vector<InputPair> inputs)
    : Process(self), machine_(self, /*tag=*/0, std::move(inputs)) {}

void ParallelConsensusProcess::on_round(RoundInfo, std::span<const Message> inbox,
                                        std::vector<Outgoing>& out) {
  if (machine_.terminated()) return;
  // One index per worker thread, as in TotalOrderProcess::main_loop_round.
  thread_local TaggedInbox index;
  const InstanceTag tag = machine_.tag();
  index.build(inbox, std::span(&tag, 1));
  std::vector<Message> msgs;
  machine_.on_round(index.bucket(tag), index.senders(), msgs);
  for (Message& m : msgs) broadcast(out, std::move(m));
}

}  // namespace idonly
