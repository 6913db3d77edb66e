// Quorum bookkeeping shared by every protocol in the library.
//
// The paper's central observation is that the unknown quantity n can be
// replaced by n_v — "the number of nodes that sent at least one message to v
// until the current round" — and f by n_v/3. ParticipantTracker maintains
// n_v; QuorumCounter counts *distinct* senders per key (message identity),
// cumulatively across rounds, which is the reading under which Lemmas 1–4 of
// the paper hold (a correct node echoes a given message once per round at
// most, and per-round duplicates are already dropped by the engine).
//
// Both sit on sorted-vector flat containers (common/flat_set.hpp). Echo
// traffic dominates their load: one rotor batch (Alg. 2's candidate echoes)
// is n echoes from each of n senders at each of n nodes, n³ deliveries
// network-wide. ParticipantTracker::note therefore inserts once per run of
// equal senders (the inbox is grouped by sender), so it costs one probe per
// sender, not per message. QuorumCounter::add rides FlatMap's finger, which
// one sender's ascending subjects hit in O(1), and FlatSet's append fast
// path for the ascending senders.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_set.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace idonly {

/// Tracks the set of nodes v has ever heard from; n_v = size().
class ParticipantTracker {
 public:
  /// Record the senders of this round's inbox (call once per round, before
  /// evaluating any threshold). Any order is counted correctly; a grouped
  /// inbox costs one insert per sender.
  void note(std::span<const Message> inbox);

  /// Record a single id (e.g. self — a node always counts itself once it
  /// broadcast, because broadcast is self-inclusive).
  void note(NodeId id) { seen_.insert(id); }

  [[nodiscard]] std::size_t n_v() const noexcept { return seen_.size(); }
  [[nodiscard]] bool knows(NodeId id) const { return seen_.contains(id); }
  /// Ascending-id iteration.
  [[nodiscard]] const FlatSet<NodeId>& ids() const noexcept { return seen_; }

 private:
  FlatSet<NodeId> seen_;
};

/// Counts distinct senders per key, cumulatively across rounds. Key is the
/// message identity relevant to a protocol: (s, m) for reliable broadcast,
/// candidate id p for the rotor, an opinion Value for consensus phases, ...
template <typename Key, typename Compare = std::less<Key>>
class QuorumCounter {
 public:
  /// Returns true when this (key, sender) pair is new.
  bool add(const Key& key, NodeId sender) {
    return add(key, sender, [] { return std::size_t{0}; });
  }

  /// add(), except that a new key's sender set gets room for `expected()`
  /// senders at once instead of growing by doubling. `expected` is called
  /// only for a new key. A new key first takes the roomiest set that clear()
  /// kept.
  template <typename Expected>
  bool add(const Key& key, NodeId sender, Expected expected) {
    FlatSet<NodeId>& senders = senders_[key];
    if (senders.empty()) {  // a new key: every held key has a sender
      if (!spare_.empty()) {
        // The roomiest spare set: the key a round fills from every member
        // outgrows the others.
        std::iter_swap(std::max_element(spare_.begin(), spare_.end(),
                                        [](const FlatSet<NodeId>& a, const FlatSet<NodeId>& b) {
                                          return a.capacity() < b.capacity();
                                        }),
                       spare_.end() - 1);
        senders = std::move(spare_.back());
        spare_.pop_back();
      }
      senders.reserve(expected());
    }
    return senders.insert(sender);
  }

  [[nodiscard]] std::size_t count(const Key& key) const {
    auto it = senders_.find(key);
    return it == senders_.end() ? 0 : it->second.size();
  }

  /// Key with the largest distinct-sender count (ties → smallest key), or
  /// nothing when empty. Used for "received at least t copies of *some*
  /// message m" style rules where at most one m can pass the threshold.
  [[nodiscard]] std::optional<std::pair<Key, std::size_t>> best() const {
    std::optional<std::pair<Key, std::size_t>> out;
    for (const auto& [key, senders] : senders_) {
      if (!out.has_value() || senders.size() > out->second) out = {key, senders.size()};
    }
    return out;
  }

  /// Ascending-key iteration of (key, distinct-sender set) pairs.
  [[nodiscard]] const FlatMap<Key, FlatSet<NodeId>, Compare>& all() const noexcept {
    return senders_;
  }

  /// Drops every key. The sender sets' storage is kept for the next keys, so
  /// a tally cleared every phase round stops allocating once it has grown;
  /// the sets held and kept never outnumber the most keys held at once.
  void clear() {
    senders_.clear([this](FlatSet<NodeId>&& senders) {
      senders.clear();
      spare_.push_back(std::move(senders));
    });
  }

 private:
  FlatMap<Key, FlatSet<NodeId>, Compare> senders_;
  std::vector<FlatSet<NodeId>> spare_;  ///< emptied sender sets, kept for their capacity
};

}  // namespace idonly
