// The mailbox layer: zero-copy message fan-out shared by every engine.
//
// All-to-all protocols make the engines route Θ(n²) deliveries per round;
// before this layer existed the sync simulator and the runtime's in-memory
// hub each implemented that fan-out as a deep copy per receiver plus a
// per-receiver content rehash for duplicate suppression. This file
// centralises the pattern:
//
//   * `MessageRef` — an immutable, ref-counted message. The engine stamps
//     the sender and wraps exactly once per send; the content hash and wire
//     size (for byte accounting) are computed at wrap time and cached, so
//     fanning out to n receivers costs n reference bumps, never n rehashes.
//   * `BroadcastLane` — one segment of a round's broadcast buffer. A
//     broadcast is deposited ONCE, with no content check: the engine keeps a
//     sender's repeated broadcast out of the lane before it gets here (it
//     groups each sender's round by content once per send, see
//     net/sync_simulator.hpp).
//   * `ShardedLane` — the synchronous engine's per-round broadcast buffer:
//     one `BroadcastLane` segment per merge lane, each filled lock-free by
//     its owning worker (senders are partitioned across lanes), then
//     `seal()`ed once per round into a single contiguous send-ordered view
//     shared by every receiver, so the common all-broadcast round does zero
//     per-receiver work. Segments cover ascending sender ranges and sequence
//     keys are globally ordered, so concatenation in segment order IS send
//     order — no sort, no merge — and the sealed entries ascend by sender.
//   * `Mailbox` — the per-receiver buffer for traffic that is genuinely
//     receiver-specific (unicasts, delayed redeliveries, broadcasts a sender
//     repeats within a round), plus MASKS: lane entries a fault withholds
//     from this receiver (a chaos drop or delay of one link). Each private
//     entry carries its TWIN, fixed at deposit: the lane key of its sender's
//     broadcast with equal content, if there is one. `collect()` merges the
//     mailbox with the shared lane in send order, skipping masked entries
//     and suppressing a private entry whose twin reaches this receiver (set
//     and not masked), into a buffer the caller owns (the sync engine keeps
//     one per worker thread and reuses it for every receiver that worker
//     steps); when a receiver has neither private traffic nor masks the
//     returned span aliases the lane view directly. There are no content
//     sets: collect() looks no content up, and the engine compares content
//     at a deposit (holds()) only where an equal copy may already be held.
//   * `FrameRef`/`FrameView`/`FrameMailbox` — the same idea one level down,
//     for the runtime's byte frames: a broadcast domain shares one
//     ref-counted frame and each endpoint's mailbox holds views into it.
//
// Ownership rules: a MessageRef/FrameRef keeps its payload alive for as long
// as any holder exists; payloads are immutable after wrapping. Spans returned
// by `Mailbox::collect` (and the frame `bytes` of a FrameView) are valid
// until the owning lane/ref is cleared or released — for the synchronous
// engine that means "for the duration of the current round's callbacks",
// matching the pre-existing `Process::on_round` inbox contract.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "net/message.hpp"

namespace idonly {

/// Immutable, ref-counted message with its content hash and wire size
/// computed once at wrap time. Copying a MessageRef is a reference bump.
class MessageRef {
 public:
  MessageRef() = default;

  /// Wrap a message (after the engine stamped the sender — the hash covers
  /// identity + content, so stamp first). Computes hash and wire size once.
  [[nodiscard]] static MessageRef wrap(Message msg);

  [[nodiscard]] const Message& get() const noexcept { return cell_->msg; }
  const Message& operator*() const noexcept { return cell_->msg; }
  const Message* operator->() const noexcept { return &cell_->msg; }

  /// Content hash (identity included), cached — never recomputed per receiver.
  [[nodiscard]] std::size_t content_hash() const noexcept { return cell_->hash; }
  /// Codec frame size this message would occupy on the wire, cached.
  [[nodiscard]] std::size_t wire_bytes() const noexcept { return cell_->wire_bytes; }

  [[nodiscard]] explicit operator bool() const noexcept { return cell_ != nullptr; }
  [[nodiscard]] long use_count() const noexcept { return cell_.use_count(); }

  /// Cached-hash fast path, full content comparison on hash agreement.
  friend bool operator==(const MessageRef& a, const MessageRef& b) noexcept {
    return a.cell_ == b.cell_ ||
           (a.cell_ != nullptr && b.cell_ != nullptr && a.cell_->hash == b.cell_->hash &&
            a.cell_->msg == b.cell_->msg);
  }

 private:
  struct Cell {
    Message msg;
    std::size_t hash = 0;
    std::uint32_t wire_bytes = 0;
  };
  std::shared_ptr<const Cell> cell_;
};

/// One segment of a round's broadcast buffer (see ShardedLane).
class BroadcastLane {
 public:
  /// Deposit a broadcast with its send-order sequence number. The caller
  /// deposits only its senders' first broadcast of each content.
  void deposit(MessageRef ref, std::uint64_t seq);

  [[nodiscard]] std::span<const MessageRef> refs() const noexcept { return entries_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Per-kind deposit counts and total wire bytes — lets the sealed lane
  /// account a whole segment in O(kinds) instead of O(messages).
  [[nodiscard]] const std::array<std::uint64_t, MessageCounters::kKinds>& kind_counts()
      const noexcept {
    return kind_counts_;
  }
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept { return wire_bytes_; }

  /// Start a new round. Keeps capacity (steady-state rounds allocate nothing).
  void clear();

  /// Move this segment's entries/seqs into `refs`/`seqs` (appending) and
  /// reset them. Used by ShardedLane::seal(); after draining, `refs()` on
  /// the segment is empty.
  void drain_into(std::vector<MessageRef>& refs, std::vector<std::uint64_t>& seqs);

 private:
  std::vector<MessageRef> entries_;
  std::vector<std::uint64_t> seqs_;
  std::array<std::uint64_t, MessageCounters::kKinds> kind_counts_{};
  std::uint64_t wire_bytes_ = 0;
};

/// The synchronous round engine's broadcast buffer: one BroadcastLane segment
/// per merge lane. During the lane-merge phase each worker deposits its own
/// senders' broadcasts into its own segment — no locks, since a sender
/// belongs to exactly one lane. `seal()` (sequential, once per round)
/// concatenates the segments into one contiguous send-ordered view:
/// segments cover ascending sender ranges and deposit keys are globally
/// ordered, so segment order IS send order. After seal the read side is
/// shared by every receiver's collect().
class ShardedLane {
 public:
  /// Start a new round with `segments` lane segments (capacity reused).
  void reset(std::size_t segments);

  [[nodiscard]] BroadcastLane& segment(std::size_t k) { return segments_[k]; }
  [[nodiscard]] std::size_t segment_count() const noexcept { return active_segments_; }

  /// Concatenate segments (in segment order) into the sealed view and
  /// materialise the shared Message span eagerly — receivers collect from
  /// concurrent lanes next round, so no lazy mutation is allowed after this.
  void seal();

  // Sealed read interface.
  /// Key of the sealed broadcast with `ref`'s content (and so its sender),
  /// if any: a binary search for the sender's entries, then a scan of them.
  /// Only a delayed redelivery needs this — every other private entry gets
  /// its twin from the sender's own round.
  [[nodiscard]] std::optional<std::uint64_t> twin_of(const MessageRef& ref) const;
  [[nodiscard]] std::span<const MessageRef> refs() const noexcept { return entries_; }
  [[nodiscard]] std::span<const std::uint64_t> seqs() const noexcept { return seqs_; }
  [[nodiscard]] std::span<const Message> view() const noexcept { return view_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const std::array<std::uint64_t, MessageCounters::kKinds>& kind_counts()
      const noexcept {
    return kind_counts_;
  }
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept { return wire_bytes_; }

 private:
  std::vector<BroadcastLane> segments_;
  std::size_t active_segments_ = 0;
  // Sealed concatenation (entries moved out of the segments).
  std::vector<MessageRef> entries_;
  std::vector<std::uint64_t> seqs_;
  std::array<std::uint64_t, MessageCounters::kKinds> kind_counts_{};
  std::uint64_t wire_bytes_ = 0;
  std::vector<Message> view_;
};

/// Per-receiver buffer for receiver-specific traffic — unicasts, delayed
/// redeliveries, and broadcasts a sender repeats within a round — and for
/// the receiver's exceptions to the shared lane. Holds references, not
/// copies. Everything is reset by collect(), so nothing leaks across rounds;
/// capacity is kept, so a steady-state deposit allocates nothing.
class Mailbox {
 public:
  /// "No lane twin" — the twin key of an entry whose content its sender did
  /// not broadcast.
  static constexpr std::uint64_t kNoTwin = ~std::uint64_t{0};

  /// Deposit with a send-order sequence number and the lane key of its twin
  /// (the sender's broadcast with equal content, kNoTwin when none). No
  /// duplicate check: the caller asks holds() first where one can exist.
  void deposit(MessageRef ref, std::uint64_t seq, std::uint64_t twin = kNoTwin);

  /// True when an entry with `ref`'s content and a sequence number of at
  /// least `since` is held. Scans back from the newest entry and stops at
  /// the first one older than `since`: the merge deposits in send order, so
  /// with `since` = the sender run's first key it reads only this
  /// receiver's entries from that sender.
  [[nodiscard]] bool holds(const MessageRef& ref, std::uint64_t since = 0) const;

  /// Withhold the lane entry with sequence number `seq` from this receiver's
  /// next collect() — the per-link exception a chaos drop or delay makes to
  /// a broadcast every other receiver still gets from the shared lane. Masks
  /// arrive in ascending `seq` order (the merge walks in send order).
  void mask(std::uint64_t seq);

  /// Assemble this receiver's round inbox: the sealed shared lane (may be
  /// null), minus masked entries, merged with private traffic in send order. A
  /// private entry is suppressed as a duplicate only when its twin is set
  /// and reaches this receiver, i.e. is not masked; with no lane nothing is
  /// suppressed. Fast
  /// path: with no private traffic and no masks the returned span aliases
  /// the lane's shared view — zero per-receiver work. Slow path: clears
  /// `scratch` and merges into it, copying each unmasked stretch of the
  /// lane's contiguous view in one go; the span aliases `scratch`, so it is
  /// valid until the caller reuses that buffer (the sync engine reuses one
  /// per worker, for the next receiver that worker steps).
  /// Updates `fanout` / `counters` with per-recipient delivery stats when
  /// non-null — the lane's share from its per-kind totals minus the masked
  /// entries. Resets the private buffer and the masks. Safe to run
  /// concurrently for DIFFERENT receivers: the sealed lane is read-only and
  /// each Mailbox is owned by one merge lane.
  std::span<const Message> collect(const ShardedLane* lane, std::vector<Message>& scratch,
                                   FanoutCounters* fanout = nullptr,
                                   MessageCounters* counters = nullptr);

  [[nodiscard]] bool empty() const noexcept { return entries_.empty() && masks_.empty(); }

 private:
  struct Entry {
    MessageRef ref;
    std::uint64_t seq = 0;
    std::uint64_t twin = kNoTwin;
  };
  std::vector<Entry> entries_;        // ascending seq
  std::vector<std::uint64_t> masks_;  // ascending lane seqs withheld from this receiver
};

// --------------------------------------------------------------- frames --
// The byte-level half of the layer, used by the runtime transports. A Frame
// is wrapped into a ref-counted FrameRef once per broadcast; endpoints hold
// FrameViews (owner + byte span), so fan-out and duplication are reference
// operations, never buffer copies.

using Frame = std::vector<std::byte>;
using FrameRef = std::shared_ptr<const Frame>;

/// A window into a ref-counted frame. `bytes` stays valid while `owner`
/// lives.
struct FrameView {
  FrameRef owner;
  std::span<const std::byte> bytes;
};

/// Copy `bytes` into a freshly allocated shared frame (the ONE copy a
/// broadcast pays, after which all receivers share it).
[[nodiscard]] FrameRef make_frame_ref(std::span<const std::byte> bytes);
[[nodiscard]] FrameView make_frame_view(std::span<const std::byte> bytes);
/// View over an already-shared frame — no copy at all.
[[nodiscard]] FrameView make_frame_view(FrameRef owner);

/// Thread-safe endpoint mailbox of frame views — the runtime analogue of
/// Mailbox, shared by the in-memory hub's endpoints.
class FrameMailbox {
 public:
  void deposit(FrameView view);
  [[nodiscard]] std::vector<FrameView> drain();
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<FrameView> views_;
};

}  // namespace idonly
