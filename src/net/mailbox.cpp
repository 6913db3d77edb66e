#include "net/mailbox.hpp"

#include <algorithm>
#include <cassert>

#include "net/codec.hpp"

namespace idonly {

MessageRef MessageRef::wrap(Message msg) {
  const std::size_t hash = MessageHash{}(msg);
  const auto wire = static_cast<std::uint32_t>(encoded_size(msg));
  MessageRef out;
  out.cell_ = std::make_shared<const Cell>(Cell{std::move(msg), hash, wire});
  return out;
}

bool BroadcastLane::deposit(MessageRef ref, std::uint64_t seq) {
  if (!seen_.emplace(ref, seq).second) return false;
  kind_counts_[static_cast<std::size_t>(ref->kind)] += 1;
  wire_bytes_ += ref.wire_bytes();
  entries_.push_back(std::move(ref));
  seqs_.push_back(seq);
  return true;
}

std::optional<std::uint64_t> BroadcastLane::seq_of(const MessageRef& ref) const {
  const auto it = seen_.find(ref);
  if (it == seen_.end()) return std::nullopt;
  return it->second;
}

std::span<const Message> BroadcastLane::view() const {
  while (view_.size() < entries_.size()) view_.push_back(entries_[view_.size()].get());
  return view_;
}

void BroadcastLane::clear() {
  entries_.clear();
  seqs_.clear();
  seen_.clear();
  kind_counts_.fill(0);
  wire_bytes_ = 0;
  view_.clear();
}

void BroadcastLane::drain_into(std::vector<MessageRef>& refs, std::vector<std::uint64_t>& seqs) {
  refs.insert(refs.end(), std::make_move_iterator(entries_.begin()),
              std::make_move_iterator(entries_.end()));
  seqs.insert(seqs.end(), seqs_.begin(), seqs_.end());
  entries_.clear();
  seqs_.clear();
  view_.clear();
}

void ShardedLane::reset(std::size_t segments) {
  if (segments_.size() < segments) segments_.resize(segments);
  active_segments_ = segments;
  for (std::size_t k = 0; k < active_segments_; ++k) segments_[k].clear();
  entries_.clear();
  seqs_.clear();
  kind_counts_.fill(0);
  wire_bytes_ = 0;
  view_.clear();
}

void ShardedLane::seal() {
  for (std::size_t k = 0; k < active_segments_; ++k) {
    BroadcastLane& segment = segments_[k];
    const auto& kinds = segment.kind_counts();
    for (std::size_t i = 0; i < kinds.size(); ++i) kind_counts_[i] += kinds[i];
    wire_bytes_ += segment.wire_bytes();
    segment.drain_into(entries_, seqs_);
  }
  view_.reserve(entries_.size());
  for (const MessageRef& ref : entries_) view_.push_back(ref.get());
}

std::optional<std::uint64_t> ShardedLane::seq_of(const MessageRef& ref) const {
  for (std::size_t k = 0; k < active_segments_; ++k) {
    if (const auto seq = segments_[k].seq_of(ref)) return seq;
  }
  return std::nullopt;
}

bool Mailbox::deposit(MessageRef ref, std::uint64_t seq) {
  if (!seen_.insert(ref).second) return false;
  entries_.push_back(std::move(ref));
  seqs_.push_back(seq);
  return true;
}

void Mailbox::mask(std::uint64_t seq) {
  assert(masks_.empty() || masks_.back() < seq);
  masks_.push_back(seq);
}

namespace {

/// The merge shared by both lane flavours: Lane needs the BroadcastLane read
/// interface (empty/view/refs/seqs/seq_of/kind_counts/wire_bytes).
template <typename Lane>
std::span<const Message> collect_impl(std::vector<MessageRef>& entries,
                                      std::vector<std::uint64_t>& seqs,
                                      std::unordered_set<MessageRef, MessageRefHash>& seen,
                                      std::vector<std::uint64_t>& masks, const Lane* lane,
                                      std::vector<Message>& scratch, FanoutCounters* fanout,
                                      MessageCounters* counters) {
  // Fast path: nothing receiver-specific — share the lane's view outright.
  if (entries.empty() && masks.empty()) {
    if (lane == nullptr || lane->empty()) return {};
    const auto view = lane->view();
    if (fanout != nullptr) {
      fanout->deliveries += view.size();
      fanout->bytes_delivered += lane->wire_bytes();
      // One non-empty per-receiver round inbox = one coalesced slab datagram
      // on a real wire (net/codec.hpp); deliveries is the per-message
      // syscall baseline the benches compare against.
      fanout->slab_sends += 1;
    }
    if (counters != nullptr) {
      const auto& kinds = lane->kind_counts();
      for (std::size_t k = 0; k < kinds.size(); ++k) counters->delivered[k] += kinds[k];
    }
    return view;
  }

  // Slow path: merge the unmasked lane entries and the private entries by
  // send order. A private entry whose content reaches this receiver through
  // the lane is the "broadcast + unicast of the same message" duplicate —
  // suppressed, like the per-receiver dedup of old, but against the cached
  // hash. A masked twin never reaches the receiver, so it suppresses nothing.
  const std::span<const MessageRef> lane_refs =
      lane != nullptr ? lane->refs() : std::span<const MessageRef>{};
  const std::span<const std::uint64_t> lane_seqs =
      lane != nullptr ? lane->seqs() : std::span<const std::uint64_t>{};
  const auto masked = [&](std::uint64_t seq) {
    return std::binary_search(masks.begin(), masks.end(), seq);
  };
  scratch.clear();
  scratch.reserve(lane_refs.size() + entries.size());
  const auto push = [&](const MessageRef& ref) {
    scratch.push_back(ref.get());
    if (fanout != nullptr) {
      fanout->deliveries += 1;
      fanout->bytes_delivered += ref.wire_bytes();
    }
    if (counters != nullptr) counters->delivered[static_cast<std::size_t>(ref->kind)] += 1;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;  // first mask the lane cursor has not passed
  while (i < lane_refs.size() || j < entries.size()) {
    const bool take_lane = j >= entries.size() || (i < lane_refs.size() && lane_seqs[i] < seqs[j]);
    if (take_lane) {
      while (k < masks.size() && masks[k] < lane_seqs[i]) k += 1;
      if (k == masks.size() || masks[k] != lane_seqs[i]) push(lane_refs[i]);
      i += 1;
    } else {
      const std::optional<std::uint64_t> twin =
          lane != nullptr ? lane->seq_of(entries[j]) : std::nullopt;
      if (twin.has_value() && !masked(*twin)) {
        if (fanout != nullptr) fanout->dedup_hits += 1;
      } else {
        push(entries[j]);
      }
      j += 1;
    }
  }
  entries.clear();
  seqs.clear();
  seen.clear();
  masks.clear();
  if (fanout != nullptr && !scratch.empty()) fanout->slab_sends += 1;
  return scratch;
}

}  // namespace

std::span<const Message> Mailbox::collect(const BroadcastLane* lane,
                                          std::vector<Message>& scratch, FanoutCounters* fanout,
                                          MessageCounters* counters) {
  return collect_impl(entries_, seqs_, seen_, masks_, lane, scratch, fanout, counters);
}

std::span<const Message> Mailbox::collect(const ShardedLane* lane,
                                          std::vector<Message>& scratch, FanoutCounters* fanout,
                                          MessageCounters* counters) {
  return collect_impl(entries_, seqs_, seen_, masks_, lane, scratch, fanout, counters);
}

FrameRef make_frame_ref(std::span<const std::byte> bytes) {
  return std::make_shared<const Frame>(bytes.begin(), bytes.end());
}

FrameView make_frame_view(std::span<const std::byte> bytes) {
  return make_frame_view(make_frame_ref(bytes));
}

FrameView make_frame_view(FrameRef owner) {
  const std::span<const std::byte> span(*owner);
  return FrameView{std::move(owner), span};
}

void FrameMailbox::deposit(FrameView view) {
  std::scoped_lock lock(mutex_);
  views_.push_back(std::move(view));
}

std::vector<FrameView> FrameMailbox::drain() {
  std::scoped_lock lock(mutex_);
  std::vector<FrameView> out;
  out.swap(views_);
  return out;
}

std::size_t FrameMailbox::size() const {
  std::scoped_lock lock(mutex_);
  return views_.size();
}

}  // namespace idonly
