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

void BroadcastLane::deposit(MessageRef ref, std::uint64_t seq) {
  kind_counts_[static_cast<std::size_t>(ref->kind)] += 1;
  wire_bytes_ += ref.wire_bytes();
  entries_.push_back(std::move(ref));
  seqs_.push_back(seq);
}

void BroadcastLane::clear() {
  entries_.clear();
  seqs_.clear();
  kind_counts_.fill(0);
  wire_bytes_ = 0;
}

void BroadcastLane::drain_into(std::vector<MessageRef>& refs, std::vector<std::uint64_t>& seqs) {
  refs.insert(refs.end(), std::make_move_iterator(entries_.begin()),
              std::make_move_iterator(entries_.end()));
  seqs.insert(seqs.end(), seqs_.begin(), seqs_.end());
  entries_.clear();
  seqs_.clear();
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

std::optional<std::uint64_t> ShardedLane::twin_of(const MessageRef& ref) const {
  const NodeId sender = ref->sender;
  auto it = std::lower_bound(entries_.begin(), entries_.end(), sender,
                             [](const MessageRef& entry, NodeId v) { return entry->sender < v; });
  for (; it != entries_.end() && (*it)->sender == sender; ++it) {
    if (*it == ref) return seqs_[static_cast<std::size_t>(it - entries_.begin())];
  }
  return std::nullopt;
}

void Mailbox::deposit(MessageRef ref, std::uint64_t seq, std::uint64_t twin) {
  assert(entries_.empty() || entries_.back().seq <= seq);
  entries_.push_back(Entry{std::move(ref), seq, twin});
}

bool Mailbox::holds(const MessageRef& ref, std::uint64_t since) const {
  for (auto it = entries_.rbegin(); it != entries_.rend() && it->seq >= since; ++it) {
    if (it->ref == ref) return true;
  }
  return false;
}

void Mailbox::mask(std::uint64_t seq) {
  assert(masks_.empty() || masks_.back() < seq);
  masks_.push_back(seq);
}

std::span<const Message> Mailbox::collect(const ShardedLane* lane,
                                          std::vector<Message>& scratch, FanoutCounters* fanout,
                                          MessageCounters* counters) {
  // Fast path: nothing receiver-specific — share the lane's view outright.
  if (entries_.empty() && masks_.empty()) {
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
  // send order. Unmasked stretches of the lane are copied straight out of
  // its contiguous view, and the lane's share of the counters is its totals
  // minus the masked entries. A private entry whose twin reaches this
  // receiver through the lane is the "broadcast + unicast of the same
  // message" duplicate — suppressed by its deposit-time twin key, with no
  // content lookup. A masked twin never reaches the receiver, so it
  // suppresses nothing.
  const std::span<const Message> view = lane != nullptr ? lane->view() : std::span<const Message>{};
  const std::span<const MessageRef> lane_refs =
      lane != nullptr ? lane->refs() : std::span<const MessageRef>{};
  const std::span<const std::uint64_t> lane_seqs =
      lane != nullptr ? lane->seqs() : std::span<const std::uint64_t>{};
  scratch.clear();
  scratch.reserve(view.size() + entries_.size());
  std::uint64_t bytes = lane != nullptr ? lane->wire_bytes() : 0;
  std::array<std::uint64_t, MessageCounters::kKinds> kinds{};
  if (lane != nullptr) kinds = lane->kind_counts();
  std::size_t i = 0;  // lane cursor
  std::size_t k = 0;  // first mask the lane cursor has not passed
  const auto at = [](auto span, std::size_t index) {
    return span.begin() + static_cast<std::ptrdiff_t>(index);
  };
  // Copy the lane entries from the cursor up to `stop`, skipping masked ones.
  const auto copy_lane_until = [&](std::size_t stop) {
    while (i < stop) {
      while (k < masks_.size() && masks_[k] < lane_seqs[i]) k += 1;
      std::size_t cut = stop;
      if (k < masks_.size() && masks_[k] <= lane_seqs[stop - 1]) {
        cut = static_cast<std::size_t>(
            std::lower_bound(at(lane_seqs, i), at(lane_seqs, stop), masks_[k]) - lane_seqs.begin());
      }
      scratch.insert(scratch.end(), at(view, i), at(view, cut));
      i = cut;
      if (i < stop && lane_seqs[i] == masks_[k]) {
        kinds[static_cast<std::size_t>(view[i].kind)] -= 1;
        bytes -= lane_refs[i].wire_bytes();
        i += 1;
        k += 1;
      }
    }
  };
  const auto twin_arrives = [&](std::uint64_t twin) {
    return lane != nullptr && twin != kNoTwin &&
           !std::binary_search(masks_.begin(), masks_.end(), twin);
  };
  for (const Entry& entry : entries_) {
    // Lane entries sent before this one (equal keys: private first).
    copy_lane_until(static_cast<std::size_t>(
        std::lower_bound(at(lane_seqs, i), lane_seqs.end(), entry.seq) - lane_seqs.begin()));
    if (twin_arrives(entry.twin)) {
      if (fanout != nullptr) fanout->dedup_hits += 1;
    } else {
      scratch.push_back(entry.ref.get());
      kinds[static_cast<std::size_t>(entry.ref->kind)] += 1;
      bytes += entry.ref.wire_bytes();
    }
  }
  copy_lane_until(lane_seqs.size());
  if (fanout != nullptr) {
    fanout->deliveries += scratch.size();
    fanout->bytes_delivered += bytes;
    if (!scratch.empty()) fanout->slab_sends += 1;
  }
  if (counters != nullptr) {
    for (std::size_t kind = 0; kind < kinds.size(); ++kind) counters->delivered[kind] += kinds[kind];
  }
  entries_.clear();
  masks_.clear();
  return scratch;
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
