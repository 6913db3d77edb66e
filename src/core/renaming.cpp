#include "core/renaming.hpp"

#include <algorithm>

#include "common/thresholds.hpp"

namespace idonly {

RenamingProcess::RenamingProcess(NodeId self) : Process(self) {}

std::optional<std::size_t> RenamingProcess::new_name() const {
  if (!terminated_) return std::nullopt;
  const auto it = s_.find(id());
  if (it == s_.end()) return std::nullopt;
  return static_cast<std::size_t>(std::distance(s_.begin(), it)) + 1;
}

void RenamingProcess::on_round(RoundInfo round, std::span<const Message> inbox,
                               std::vector<Outgoing>& out) {
  if (terminated_) return;
  tracker_.note(inbox);
  for (const Message& m : inbox) {
    // Ids already in S are skipped by the accumulation loop below, so their
    // tallies are never read again.
    if (m.kind == MsgKind::kEcho && m.value.is_bot() && !s_.contains(m.subject)) {
      echoes_.add(m.subject, m.sender);
    }
    if (m.kind == MsgKind::kTerminate) terminates_.add(m.round_tag, m.sender);
  }

  if (round.local == 1) {
    broadcast(out, Message{.kind = MsgKind::kInit});
    return;
  }
  if (round.local == 2) {
    for (const Message& m : inbox) {
      if (m.kind != MsgKind::kInit) continue;
      Message echo;
      echo.kind = MsgKind::kEcho;
      echo.subject = m.sender;
      broadcast(out, echo);
    }
    return;
  }

  const Round r = round.local - 2;  // loop rounds are 1-based
  const std::size_t n_v = tracker_.n_v();
  std::vector<Message> m_out;
  bool changed = false;

  // Id accumulation in reliable-broadcast fashion.
  for (const auto& [candidate, senders] : echoes_.all()) {
    if (s_.contains(candidate)) continue;
    if (at_least_one_third(senders.size(), n_v)) {
      Message echo;
      echo.kind = MsgKind::kEcho;
      echo.subject = candidate;
      m_out.push_back(echo);
    }
    if (at_least_two_thirds(senders.size(), n_v)) {
      s_.insert(candidate);
      changed = true;
    }
  }
  if (changed) last_change_round_ = r;

  // Termination proposal: S unchanged through the previous and current loop
  // rounds. (r >= 2 so there IS a previous round to be quiet in.)
  if (r >= 2 && last_change_round_ < r - 1) {
    Message t;
    t.kind = MsgKind::kTerminate;
    t.round_tag = static_cast<std::uint32_t>(r - 1);
    m_out.push_back(t);
  }

  // terminate(k) relay and acceptance.
  for (const auto& [k, senders] : terminates_.all()) {
    if (at_least_one_third(senders.size(), n_v)) {
      Message t;
      t.kind = MsgKind::kTerminate;
      t.round_tag = k;
      m_out.push_back(t);
    }
    if (at_least_two_thirds(senders.size(), n_v)) terminated_ = true;
  }

  // Dedup within this round's outbox (relay + proposal may coincide).
  std::sort(m_out.begin(), m_out.end(), [](const Message& a, const Message& b) {
    return std::tie(a.kind, a.subject, a.round_tag) < std::tie(b.kind, b.subject, b.round_tag);
  });
  m_out.erase(std::unique(m_out.begin(), m_out.end()), m_out.end());
  for (Message& m : m_out) broadcast(out, std::move(m));
}

}  // namespace idonly
