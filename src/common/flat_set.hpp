// Sorted-vector flat containers for hot-path quorum bookkeeping.
//
// The core protocols touch their quorum sets once per delivered message, and
// echo traffic dominates deliveries: one rotor batch (Alg. 2's candidate
// echoes) is n echoes from each of n senders to each of n receivers, n³
// deliveries network-wide. The node-based std::set/std::map they used to sit
// on paid a heap allocation plus a pointer-chasing tree walk per probe. A
// FlatSet keeps its elements in one sorted contiguous vector: membership
// tests are cache-friendly binary searches, and the dominant insertion
// pattern (senders arrive in ascending id order because the engine routes
// members in ascending id order) hits an O(1) append fast path. FlatMap is
// the same idea for key → value tables (quorum counters key by
// payload/candidate).
//
// FlatMap::operator[] keeps a finger on the last entry it returned and
// probes that entry and its successor before binary-searching: one sender's
// echoes name their subjects in ascending order (each sender walks its own
// ascending tally), so consecutive probes hit the same or the next key and
// a lookup costs O(1). A miss falls back to the binary search and re-aims
// the finger; clear() resets it. The const find() is finger-free.
//
// Deliberately minimal: only the operations the protocol layer uses. Both
// containers iterate in ascending key order, so replacing std::set/std::map
// never changes the deterministic iteration order protocol code relies on.
// Keys must be strictly weakly ordered by Compare (Value excludes NaN for
// this reason).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <set>
#include <utility>
#include <vector>

namespace idonly {

template <typename T, typename Compare = std::less<T>>
class FlatSet {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;

  FlatSet() = default;

  FlatSet(std::initializer_list<T> init) {
    for (const T& v : init) insert(v);
  }

  /// Migration convenience: std::set iterates in ascending order, so the
  /// copy is a straight append.
  FlatSet(const std::set<T, Compare>& from) : values_(from.begin(), from.end()) {}  // NOLINT

  /// Returns true when the value was inserted (false: already present).
  bool insert(const T& value) {
    // Ascending-arrival fast path: the engine steps and routes members in
    // ascending id order, so most inserts land past the current back.
    if (values_.empty() || comp_(values_.back(), value)) {
      values_.push_back(value);
      return true;
    }
    const auto it = std::lower_bound(values_.begin(), values_.end(), value, comp_);
    if (it != values_.end() && !comp_(value, *it)) return false;
    values_.insert(it, value);
    return true;
  }

  /// Returns true when the value was present and removed.
  bool erase(const T& value) {
    const auto it = std::lower_bound(values_.begin(), values_.end(), value, comp_);
    if (it == values_.end() || comp_(value, *it)) return false;
    values_.erase(it);
    return true;
  }

  [[nodiscard]] bool contains(const T& value) const {
    const auto it = std::lower_bound(values_.begin(), values_.end(), value, comp_);
    return it != values_.end() && !comp_(value, *it);
  }

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  void clear() noexcept { values_.clear(); }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const noexcept { return values_.capacity(); }

  [[nodiscard]] const_iterator begin() const noexcept { return values_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return values_.end(); }
  /// The underlying sorted storage (ascending).
  [[nodiscard]] const std::vector<T>& values() const noexcept { return values_; }

  friend bool operator==(const FlatSet& a, const FlatSet& b) { return a.values_ == b.values_; }

 private:
  std::vector<T> values_;
  [[no_unique_address]] Compare comp_;
};

template <typename Key, typename V, typename Compare = std::less<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;
  using iterator = typename std::vector<value_type>::iterator;

  FlatMap() = default;

  /// std::map semantics: default-construct on first access. Probes the
  /// finger (last hit) and its successor before binary-searching.
  V& operator[](const Key& key) {
    for (std::size_t i = finger_; i < entries_.size() && i <= finger_ + 1; ++i) {
      if (equivalent(entries_[i].first, key)) {
        finger_ = i;
        return entries_[i].second;
      }
    }
    auto it = lower_bound(key);
    if (it == entries_.end() || comp_(key, it->first)) it = entries_.emplace(it, key, V{});
    finger_ = static_cast<std::size_t>(it - entries_.begin());
    return it->second;
  }

  [[nodiscard]] const_iterator find(const Key& key) const {
    const auto it = lower_bound(key);
    return it != entries_.end() && !comp_(key, it->first) ? it : entries_.end();
  }

  [[nodiscard]] bool contains(const Key& key) const { return find(key) != entries_.end(); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept {
    entries_.clear();
    finger_ = 0;
  }
  /// clear(), handing each value to `keep` first (to reuse its storage).
  template <typename Keep>
  void clear(Keep keep) {
    for (value_type& entry : entries_) keep(std::move(entry.second));
    clear();
  }

  [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

 private:
  [[nodiscard]] bool equivalent(const Key& a, const Key& b) const {
    return !comp_(a, b) && !comp_(b, a);
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [this](const value_type& e, const Key& k) { return comp_(e.first, k); });
  }
  [[nodiscard]] iterator lower_bound(const Key& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [this](const value_type& e, const Key& k) { return comp_(e.first, k); });
  }

  std::vector<value_type> entries_;
  std::size_t finger_ = 0;  ///< index of the last entry operator[] returned
  [[no_unique_address]] Compare comp_;
};

}  // namespace idonly
