// Flat quorum containers (common/flat_set.hpp) against std::set/std::map on
// random operation sequences, including the access patterns FlatMap's
// finger is built for (ascending runs) and the ones it must survive
// (inserts before the finger, lookups after clear()); plus
// ParticipantTracker's one-insert-per-sender-run counting.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/flat_set.hpp"
#include "common/rng.hpp"
#include "core/participant_tracker.hpp"

namespace idonly {
namespace {

/// A key stream mixing ascending runs, repeats, steps back before the last
/// key and uniformly random keys over [0, range).
class KeyStream {
 public:
  KeyStream(Rng& rng, std::uint64_t range) : rng_(rng), range_(range) {}

  std::uint64_t next() {
    const std::uint64_t pick = rng_.below(10);
    if (pick < 4) {
      last_ = (last_ + 1) % range_;  // ascending run: the finger's fast path
    } else if (pick < 6) {
      // repeat the last key
    } else if (pick < 8) {
      last_ = last_ == 0 ? 0 : rng_.below(last_);  // before the last key
    } else {
      last_ = rng_.below(range_);
    }
    return last_;
  }

 private:
  Rng& rng_;
  std::uint64_t range_;
  std::uint64_t last_ = 0;
};

TEST(FlatSet, MatchesStdSetOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    KeyStream keys(rng, 1 + rng.below(64));
    FlatSet<std::uint64_t> flat;
    std::set<std::uint64_t> reference;
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t key = keys.next();
      const std::uint64_t kind = rng.below(100);
      if (kind < 55) {
        ASSERT_EQ(flat.insert(key), reference.insert(key).second) << seed;
      } else if (kind < 70) {
        ASSERT_EQ(flat.erase(key), reference.erase(key) == 1) << seed;
      } else if (kind < 98) {
        ASSERT_EQ(flat.contains(key), reference.contains(key)) << seed;
      } else {
        flat.clear();
        reference.clear();
      }
      ASSERT_EQ(flat.size(), reference.size()) << seed;
    }
    EXPECT_EQ(std::vector<std::uint64_t>(flat.begin(), flat.end()),
              std::vector<std::uint64_t>(reference.begin(), reference.end()));
  }
}

TEST(FlatMap, MatchesStdMapOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    KeyStream keys(rng, 1 + rng.below(64));
    FlatMap<std::uint64_t, int> flat;
    std::map<std::uint64_t, int> reference;
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t key = keys.next();
      const std::uint64_t kind = rng.below(100);
      if (kind < 60) {
        flat[key] += op;
        reference[key] += op;
      } else if (kind < 97) {
        const auto it = flat.find(key);
        const auto ref = reference.find(key);
        ASSERT_EQ(it == flat.end(), ref == reference.end()) << seed;
        if (ref != reference.end()) {
          ASSERT_EQ(it->second, ref->second) << seed;
        }
        ASSERT_EQ(flat.contains(key), reference.contains(key)) << seed;
      } else {
        flat.clear();
        reference.clear();
      }
      ASSERT_EQ(flat.size(), reference.size()) << seed;
    }
    using Entries = std::vector<std::pair<std::uint64_t, int>>;
    EXPECT_EQ(Entries(flat.begin(), flat.end()), Entries(reference.begin(), reference.end()));
  }
}

TEST(FlatMap, InsertBeforeTheFingerKeepsItsEntriesApart) {
  FlatMap<int, int> map;
  map[10] = 1;
  map[20] = 2;  // finger on 20
  map[5] = 3;   // lands before the finger and shifts it
  map[20] += 10;
  map[10] += 10;
  map[15] = 4;  // between the finger's entry and its successor
  map[20] += 100;
  EXPECT_EQ((std::vector<std::pair<int, int>>(map.begin(), map.end())),
            (std::vector<std::pair<int, int>>{{5, 3}, {10, 11}, {15, 4}, {20, 112}}));
}

TEST(FlatMap, LookupAfterClearStartsFresh) {
  FlatMap<int, int> map;
  for (int k = 0; k < 8; ++k) map[k] = k;  // finger ends on the last entry
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map[7], 0) << "a stale finger must not resurrect the old entry";
  EXPECT_EQ(map[3], 0);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_FALSE(map.contains(5));
}

TEST(ParticipantTracker, UngroupedInboxCountsEachSenderOnce) {
  std::vector<Message> inbox;
  for (NodeId sender : {40u, 7u, 40u, 99u, 7u}) inbox.push_back(Message{.sender = sender});
  ParticipantTracker tracker;
  tracker.note(inbox);
  EXPECT_EQ(tracker.n_v(), 3u);
  EXPECT_EQ(tracker.ids(), (FlatSet<NodeId>{7, 40, 99}));
  tracker.note(inbox);  // a later round from the same senders adds nobody
  EXPECT_EQ(tracker.n_v(), 3u);
}

}  // namespace
}  // namespace idonly
