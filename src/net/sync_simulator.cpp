#include "net/sync_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace idonly {

namespace {

/// Equal content down to the bits: ±0.0 compare equal but encode differently,
/// so two such messages must not share one wrap.
bool same_bits(const Message& a, const Message& b) {
  return a == b && std::signbit(a.value.real_or(0.0)) == std::signbit(b.value.real_or(0.0));
}

}  // namespace

void SyncSimulator::add_process(std::unique_ptr<Process> process) {
  if (process == nullptr) throw std::invalid_argument("add_process: null process");
  const NodeId id = process->id();
  const bool leaving =
      std::find(pending_removals_.begin(), pending_removals_.end(), id) != pending_removals_.end();
  if (leaving) {
    // Re-use of an id whose removal is queued: make that removal effective
    // now — old member, any stale queued join, and in-flight delayed
    // messages all die — so the replacement joins cleanly next round
    // (instead of step() mistaking it for the departing node).
    members_.erase(id);
    member_ids_dirty_ = true;
    std::erase_if(pending_joins_,
                  [id](const std::unique_ptr<Process>& p) { return p->id() == id; });
    for (auto& [due, entries] : delayed_) {
      std::erase_if(entries, [id](const auto& entry) { return entry.first == id; });
    }
    std::erase(pending_removals_, id);
  } else {
    const bool queued = std::any_of(pending_joins_.begin(), pending_joins_.end(),
                                    [id](const auto& p) { return p->id() == id; });
    if (members_.contains(id) || queued) {
      throw std::invalid_argument("add_process: duplicate live node id " + std::to_string(id));
    }
  }
  pending_joins_.push_back(std::move(process));
}

void SyncSimulator::remove_process(NodeId id) { pending_removals_.push_back(id); }

void SyncSimulator::set_threads(unsigned threads) {
  if (threads < 1) threads = 1;
  if (threads == threads_) return;
  threads_ = threads;
  executor_ = threads_ > 1 ? std::make_unique<ParallelExecutor>(threads_) : nullptr;
}

void SyncSimulator::run_tasks(std::size_t count,
                              const std::function<void(std::size_t, unsigned)>& fn) {
  if (executor_ != nullptr && count > 1) {
    executor_->run(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
  }
}

std::size_t SyncSimulator::slot_of(NodeId id) const noexcept {
  // dispatches_ is built from the ordered member map, so it is ascending by
  // id — a unicast target resolves with one binary search.
  const auto it = std::lower_bound(dispatches_.begin(), dispatches_.end(), id,
                                   [](const Dispatch& d, NodeId v) { return d.id < v; });
  if (it == dispatches_.end() || it->id != id) return dispatches_.size();
  return static_cast<std::size_t>(it - dispatches_.begin());
}

void SyncSimulator::merge_lane(std::size_t lane_index) {
  // One lane of the parallel merge. The lane owns a contiguous range of
  // destination slots — their mailboxes, their per-(from,to) chaos sequence
  // counters, and their trace rings are touched by THIS lane only — and the
  // contiguous range of sender runs that covers the same local members. It
  // walks every message of the round in merged send order (ascending sender
  // id, then outbox position) and applies exactly the effects it owns, so
  // each receiver observes the same deposit order as the sequential engine —
  // regardless of how the other lanes interleave in real time.
  LaneArena& arena = arenas_[lane_index];
  const std::size_t begin = lane_starts_[lane_index];
  const std::size_t end = lane_starts_[lane_index + 1];
  const std::size_t own_begin = run_starts_[lane_index];
  const std::size_t own_end = run_starts_[lane_index + 1];
  BroadcastLane& segment = lanes_[fill_lane_].segment(lane_index);

  // What the link from the run's sender to receiver slot `t` does to its
  // next message: the chaos verdict, staged for the fault counters and
  // recorded. Only links of walked rounds get one; elsewhere no phase
  // covers the round and nothing records it, so every link is clean. A
  // clean, unrecorded verdict is staged nowhere; staging is its own lambda
  // so that the verdict inlines into the link walk.
  const ChaosSchedule* chaos = chaos_.get();
  const bool record = recorder_ != nullptr;
  const auto stage_verdict = [&](const ChaosSchedule::SenderKey& sender, NodeId to,
                                 std::uint64_t seq, const FaultDecision& fault) {
    if (fault.faulted()) arena.chaos_stage.push_back(fault);
    if (record) {
      arena.trace_stage.push_back(
          make_link_verdict_record(LinkEvent{round_, sender.from, to, seq}, fault));
    }
  };
  const auto link_fault = [&](const ChaosSchedule::SenderKey& sender, std::size_t t) {
    LaneArena::Link& link = arena.links[t - begin];
    const std::uint64_t seq = link.seq++;
    const FaultDecision fault = chaos->verdict(sender, link.key, seq);
    if (record || fault.faulted()) stage_verdict(sender, link.key.to, seq, fault);
    return fault;
  };

  // A receiver's own copy: unicasts, and broadcasts that repeat content
  // their sender already broadcast this round (the lane holds only the
  // first copy). The model discards identical messages from one sender
  // within a round, and such a copy can wait in the mailbox only when the
  // annotation says so (`note.maybe_held`) or as this send's chaos
  // duplicate: only then is the receiver's tail of entries from this sender
  // (keys from `run_key` on) read.
  const auto deposit_private = [&](NodeId to, Member& member, const MessageRef& ref,
                                   std::uint64_t key, const FaultDecision& fault,
                                   const SendNote& note, std::uint64_t twin, std::uint64_t run_key) {
    if (fault.drop) return;
    bool held = note.maybe_held != 0 && member.mailbox.holds(ref, run_key);
    if (fault.duplicate) {
      // Second copy, deposited before the primary: the decision is what
      // must reproduce, and it is in the trace.
      if (held) {
        arena.fanout.dedup_hits += 1;
      } else {
        member.mailbox.deposit(ref, key, twin);
        held = true;
      }
    }
    if (fault.delay_rounds > 0) {
      arena.delayed_stage.push_back({round_ + 1 + fault.delay_rounds, to, ref});
      return;
    }
    if (held) {
      arena.fanout.dedup_hits += 1;
    } else {
      member.mailbox.deposit(ref, key + 1, twin);
    }
  };

  // A fault on a broadcast the lane carries at `key` is an exception for
  // this receiver alone: a drop, or a delay without a duplicate, masks the
  // lane entry. A duplicate's second copy dies in dedup, so a duplicate
  // keeps the on-time lane copy, and a delayed duplicate adds a late one.
  const auto except_from_lane = [&](NodeId to, Member& member, const MessageRef& ref,
                                    std::uint64_t key, const FaultDecision& fault) {
    if (fault.drop) {
      member.mailbox.mask(key);
      return;
    }
    if (fault.delay_rounds > 0) {
      arena.delayed_stage.push_back({round_ + 1 + fault.delay_rounds, to, ref});
      if (!fault.duplicate) member.mailbox.mask(key);
    } else if (fault.duplicate) {
      arena.fanout.dedup_hits += 1;
    }
  };

  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const SenderRun& run = runs_[r];
    const bool own_run = r >= own_begin && r < own_end;
    const std::uint64_t run_key = seq_ + 2 * run.base;
    // The verdict hash is keyed once per sender run, then once per link of
    // the run: a message adds only its `seq` and its coins.
    ChaosSchedule::SenderKey sender;
    if (walk_links_) {
      sender = chaos_->sender_key(round_, run.id, chaos_phase_);
      arena.links.resize(end - begin);
      for (std::size_t t = begin; t < end; ++t) {
        arena.links[t - begin] = {chaos_->link_key(sender, dispatches_[t].id), 0};
      }
    }
    for (std::size_t m = 0; m < run.sends.size(); ++m) {
      const Send& send = run.sends[m];
      const MessageRef& ref = send.ref;
      const SendNote& note = run.notes[m];
      const std::uint64_t twin =
          note.twin == SendNote::kNoTwin ? Mailbox::kNoTwin : run_key + 2 * note.twin;
      // Two deposit keys per visible send ordinal: a chaos duplicate copy
      // takes `key`, the primary copy `key + 1` — duplicate-before-primary,
      // exactly the sequential engine's deposit order. Only relative order
      // is observable, so the gaps left by unfaulted messages (and by
      // traffic another slice never shows this one) are free.
      const std::uint64_t key = run_key + 2 * m;
      if (own_run) {
        if (run.local) {
          arena.messages.sent[static_cast<std::size_t>(ref->kind)] += 1;
          arena.fanout.unique_payloads += 1;
          if (recorder_) arena.trace_stage.push_back(make_send_record(run.id, round_, send.to));
        }
        if (!send.to.has_value()) {
          // A broadcast is one deposit into this lane's segment, faults or
          // not. Segments cover ascending sender ranges, so seal()'s
          // concatenation is globally key-ordered. A repeat gets no entry:
          // where no link is walked, the first copy reaches everyone and the
          // repeat is the sender's engine's dedup hit.
          if (note.repeat == 0) {
            segment.deposit(ref, key);
          } else if (!walk_links_ && run.local) {
            arena.fanout.dedup_hits += 1;
          }
        }
      }
      if (send.to.has_value()) {
        const std::size_t t = note.slot;
        if (t >= begin && t < end) {  // recipient gone → no lane owns it; message lost
          deposit_private(*send.to, *dispatches_[t].member, ref, key,
                          walk_links_ ? link_fault(sender, t) : FaultDecision{}, note, twin,
                          run_key);
        }
      } else if (walk_links_) {
        // A clean link leaves a first broadcast to the lane: the receiver is
        // touched only for a fault or a repeat.
        const bool repeat = note.repeat != 0;
        for (std::size_t t = begin; t < end; ++t) {
          const FaultDecision fault = link_fault(sender, t);
          if (repeat) {
            deposit_private(dispatches_[t].id, *dispatches_[t].member, ref, key, fault, note, twin,
                            run_key);
          } else if (fault.faulted()) {
            except_from_lane(dispatches_[t].id, *dispatches_[t].member, ref, key, fault);
          }
        }
      }
    }
  }
}

void SyncSimulator::step() {
  begin_round();
  finish_round({});
}

void SyncSimulator::begin_round() {
  // Departures announced during the previous round take effect before this
  // one begins: messages the leaver already sent were routed then, but it
  // neither acts nor receives from here on. A node that was added and
  // removed before ever stepping is purged from the pending-join queue too,
  // and in-flight delayed messages addressed to the leaver die with it — a
  // later process re-using the id must not inherit them.
  for (NodeId id : pending_removals_) {
    members_.erase(id);
    member_ids_dirty_ = true;
    std::erase_if(pending_joins_,
                  [id](const std::unique_ptr<Process>& p) { return p->id() == id; });
    for (auto& [due, entries] : delayed_) {
      std::erase_if(entries, [id](const auto& entry) { return entry.first == id; });
    }
  }
  pending_removals_.clear();

  // Joins announced before this round become effective now (the dynamic
  // model lets the adversary admit nodes "before every round starts").
  for (auto& joiner : pending_joins_) {
    const NodeId id = joiner->id();
    assert(members_.find(id) == members_.end() && "duplicate live node id");
    Member member;
    member.process = std::move(joiner);
    member.joined_round = round_ + 1;
    members_.emplace(id, std::move(member));
    member_ids_dirty_ = true;
  }
  pending_joins_.clear();

  round_ += 1;
  metrics_.rounds_executed = round_;

  // Flip lanes: the lane sealed last step is consumed by every member this
  // step; this step's merge lanes fill the other.
  ShardedLane& deliver_lane = lanes_[fill_lane_];
  fill_lane_ ^= 1;

  // Deliver synchrony-fault-delayed messages that are due this round. They
  // land in the receiver's private mailbox AFTER last round's routed
  // traffic (their sequence numbers are fresher), preserving the historical
  // "delayed messages arrive at the back of the inbox" order. A delayed
  // copy was sent in an earlier round, so its twin is whatever equal
  // broadcast its sender put in the deliver lane: the one content lookup the
  // engine makes, and only for messages that are due.
  for (auto it = delayed_.begin(); it != delayed_.end() && it->first <= round_;) {
    for (auto& [to, ref] : it->second) {
      auto member = members_.find(to);
      if (member == members_.end()) continue;
      Mailbox& mailbox = member->second.mailbox;
      const std::uint64_t seq = seq_++;
      if (mailbox.holds(ref)) {
        metrics_.fanout.dedup_hits += 1;
      } else {
        mailbox.deposit(ref, seq, deliver_lane.twin_of(ref).value_or(Mailbox::kNoTwin));
      }
    }
    it = delayed_.erase(it);
  }

  // The dispatch arena persists across rounds: slab/scratch capacity from
  // the previous round is reused (the sends' MessageRef cells are new).
  if (dispatches_.size() > members_.size()) dispatches_.resize(members_.size());
  dispatches_.reserve(members_.size());
  std::size_t slot = 0;
  for (auto& [id, member] : members_) {
    if (slot == dispatches_.size()) dispatches_.emplace_back();
    Dispatch& dispatch = dispatches_[slot++];
    dispatch.id = id;
    dispatch.member = &member;
    dispatch.outbox.clear();
    dispatch.sends.clear();
    dispatch.became_done = false;
  }
  const std::size_t n = dispatches_.size();

  // Lane plan: contiguous destination-slot ranges, one per worker.
  const std::size_t lane_count = std::max<std::size_t>(std::min<std::size_t>(threads_, n), 1);
  lane_starts_.assign(lane_count + 1, 0);
  for (std::size_t l = 0; l <= lane_count; ++l) lane_starts_[l] = n * l / lane_count;
  if (arenas_.size() < lane_count) arenas_.resize(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    LaneArena& arena = arenas_[l];
    arena.messages = MessageCounters{};
    arena.fanout.reset();
    arena.trace_stage.clear();
    arena.chaos_stage.clear();
    arena.delayed_stage.clear();
  }
  lanes_[fill_lane_].reset(lane_count);

  // The merge walks every (sender, receiver) link only when a link may be
  // faulted or observed: a chaos phase covers this round, or a recorder
  // logs every verdict. Otherwise a broadcast is one lane deposit and
  // nothing else.
  chaos_phase_ = chaos_ != nullptr ? chaos_->phase_for(round_) : std::nullopt;
  walk_links_ = chaos_ != nullptr && (recorder_ != nullptr || chaos_phase_.has_value());

  if (step_arenas_.size() != threads_) step_arenas_.resize(threads_);
  for (StepArena& arena : step_arenas_) {
    arena.messages = MessageCounters{};
    arena.fanout.reset();
  }

  // Phase 1 — parallel stepping, one task per process: assemble the inbox,
  // step into the private outbox slab, then stamp and wrap the messages (the
  // content hashing is the round's other big CPU sink). Lock-step semantics
  // hold although some members step before others' inboxes exist: until
  // finish_round, the mailboxes are touched only by their own member's
  // collect() and the sealed deliver lane is read-only, so an inbox holds
  // the same messages whenever it is built. A receiver that cannot alias the
  // lane is merged into its worker slot's buffer, which stays put until the
  // step returns (one task per slot at a time).
  run_tasks(n, [this, &deliver_lane](std::size_t index, unsigned slot) {
    Dispatch& dispatch = dispatches_[index];
    Member& member = *dispatch.member;
    StepArena& arena = step_arenas_[slot];
    // A member admitted at the start of THIS step was not a receiver of last
    // round's broadcasts — it gets no lane, and its mailbox is empty.
    const ShardedLane* lane = member.joined_round == round_ ? nullptr : &deliver_lane;
    const std::span<const Message> inbox =
        member.mailbox.collect(lane, arena.inbox, &arena.fanout, &arena.messages);
    if (recorder_ && !inbox.empty()) {
      // Recorded before the callback, so this node's ring holds its deliveries
      // ahead of the protocol events on_round records. Rings are per node, so
      // how other nodes' batches interleave with this one is unobservable.
      for (const Message& msg : inbox) {
        arena.deliveries.push_back(make_deliver_record(dispatch.id, round_, msg.sender));
      }
      recorder_->record_batch(arena.deliveries);
      arena.deliveries.clear();
    }
    const bool was_done = member.process->done();
    RoundInfo info{round_, round_ - member.joined_round + 1};
    member.process->on_round(info, inbox, dispatch.outbox);
    dispatch.became_done = !was_done && member.process->done();
    dispatch.sends.reserve(dispatch.outbox.size());
    for (Outgoing& out : dispatch.outbox) {
      Message msg = std::move(out.msg);
      msg.sender = dispatch.id;  // unforgeable identity
      // A two-faced sender repeats one message to every receiver of a side:
      // consecutive equal contents share one wrap (one hash, one cell).
      if (!dispatch.sends.empty() && same_bits(dispatch.sends.back().ref.get(), msg)) {
        MessageRef shared = dispatch.sends.back().ref;
        dispatch.sends.push_back(Send{out.to, std::move(shared)});
      } else {
        dispatch.sends.push_back(Send{out.to, MessageRef::wrap(std::move(msg))});
      }
    }
  });
}

void SyncSimulator::annotate_run(const SenderRun& run, ContentGroups& groups) const {
  const std::span<const Send> sends = run.sends;
  const auto n = static_cast<std::uint32_t>(sends.size());
  assert(n < SendNote::kNoTwin);
  // Each lane reads a unicast's receiver slot, resolved here once. A run's
  // unicasts mostly name ascending receivers (a two-faced sender expands
  // each broadcast over one side, in id order), so the search first looks
  // a few slots past the previous unicast's.
  std::size_t next = 0;
  const auto receiver_slot = [&](std::uint32_t m) -> std::uint32_t {
    if (!sends[m].to.has_value()) return 0;
    const NodeId to = *sends[m].to;
    std::size_t t = next;
    const std::size_t stop = std::min(next + 4, dispatches_.size());
    while (t < stop && dispatches_[t].id < to) ++t;
    if (t >= dispatches_.size() || dispatches_[t].id != to) t = slot_of(to);
    next = t + 1;
    return static_cast<std::uint32_t>(t);
  };
  if (n == 1) {
    run.notes[0] = SendNote{};
    run.notes[0].slot = receiver_slot(0);
    return;
  }
  // An open-addressing table of 2^bits slots for `count` keys, at most two
  // thirds full.
  const auto size_table = [](std::vector<std::uint32_t>& table, std::size_t count) {
    int bits = 1;
    while ((std::size_t{1} << bits) < count + count / 2 + 1) ++bits;
    table.assign(std::size_t{1} << bits, 0);
    return bits;
  };
  const auto slot = [](std::uint64_t hash, int bits) {
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
  };

  // Group the sends by content. A block of consecutive equal sends shares
  // one wrap (begin_round), so only a block's first send probes the table
  // with its cached hash, comparing full content on a hash match.
  const auto shares_wrap = [&](std::uint32_t m) {
    return m > 0 && &sends[m - 1].ref.get() == &sends[m].ref.get();
  };
  std::size_t blocks = 0;
  for (std::uint32_t m = 0; m < n; ++m) blocks += shares_wrap(m) ? 0 : 1;
  groups.groups.clear();
  groups.group_of.resize(n);
  int bits = size_table(groups.contents, blocks);
  std::size_t mask = groups.contents.size() - 1;
  for (std::uint32_t m = 0; m < n; ++m) {
    const MessageRef& ref = sends[m].ref;
    if (shares_wrap(m)) {
      groups.group_of[m] = groups.group_of[m - 1];
    } else {
      std::size_t h = slot(ref.content_hash(), bits);
      while (groups.contents[h] != 0 &&
             !(sends[groups.groups[groups.contents[h] - 1].first].ref == ref)) {
        h = (h + 1) & mask;
      }
      if (groups.contents[h] == 0) {
        groups.groups.push_back({m, ContentGroups::kNone});
        groups.contents[h] = static_cast<std::uint32_t>(groups.groups.size());
      }
      groups.group_of[m] = groups.contents[h] - 1;
    }
    ContentGroups::Group& group = groups.groups[groups.group_of[m]];
    if (sends[m].to.has_value()) {
      group.unicasts += 1;
    } else if (group.first_broadcast == ContentGroups::kNone) {
      group.first_broadcast = m;
    }
  }

  // Walk the run again in order. Only unicasts of a content sent to more
  // than one receiver need the (content, receiver) table.
  std::size_t paired = 0;
  for (const ContentGroups::Group& group : groups.groups) {
    if (group.unicasts > 1) paired += group.unicasts;
  }
  bits = size_table(groups.pairs, paired);
  mask = groups.pairs.size() - 1;
  // False when this (group, receiver) pair was already inserted.
  const auto insert_pair = [&](std::uint32_t g, NodeId to, std::uint32_t m) {
    std::size_t h = slot(to ^ (std::uint64_t{g} << 40), bits);
    for (; groups.pairs[h] != 0; h = (h + 1) & mask) {
      const std::uint32_t other = groups.pairs[h] - 1;
      if (groups.group_of[other] == g && *sends[other].to == to) return false;
    }
    groups.pairs[h] = m + 1;
    return true;
  };
  for (std::uint32_t m = 0; m < n; ++m) {
    const std::uint32_t g = groups.group_of[m];
    ContentGroups::Group& group = groups.groups[g];
    const bool twinned = group.first_broadcast != ContentGroups::kNone && group.first_broadcast != m;
    SendNote& note = run.notes[m];
    note.twin = twinned ? group.first_broadcast : SendNote::kNoTwin;
    note.repeat = 0;
    note.maybe_held = 0;
    note.slot = receiver_slot(m);
    if (sends[m].to.has_value()) {
      const bool seen = group.unicasts > 1 && !insert_pair(g, *sends[m].to, m);
      note.maybe_held = group.repeat_seen || seen ? 1 : 0;
      group.private_seen = true;
    } else if (twinned) {
      note.repeat = 1;
      note.maybe_held = group.private_seen ? 1 : 0;
      group.private_seen = true;
      group.repeat_seen = true;
    }
  }
}

void SyncSimulator::finish_round(std::span<const std::vector<Send>> remote_streams) {
  // Phase 2 — sequential prefix pass. Merge on sender id: one run per local
  // member with sends, one per
  // remote sender (a remote stream is ascending by sender, so each sender's
  // sends are contiguous). Sender sets are disjoint, so ordering the runs
  // by sender id replays the visible subsequence of the global send order.
  // Each run's `base` is its visible send ordinal — every deposit key
  // derives from these, so keys are thread-count-invariant.
  runs_.clear();
  for (Dispatch& dispatch : dispatches_) {
    if (dispatch.sends.empty()) continue;
    dispatch.notes.resize(dispatch.sends.size());
    runs_.push_back({dispatch.id, true, dispatch.sends, dispatch.notes.data(), 0});
  }
  if (remote_notes_.size() < remote_streams.size()) remote_notes_.resize(remote_streams.size());
  for (std::size_t s = 0; s < remote_streams.size(); ++s) {
    const std::vector<Send>& stream = remote_streams[s];
    std::vector<SendNote>& notes = remote_notes_[s];
    notes.resize(stream.size());
    for (std::size_t begin = 0, end = 0; begin < stream.size(); begin = end) {
      const NodeId sender = stream[begin].ref->sender;
      while (end < stream.size() && stream[end].ref->sender == sender) ++end;
      runs_.push_back({sender, false, std::span(stream).subspan(begin, end - begin),
                       notes.data() + begin, 0});
    }
  }
  if (!remote_streams.empty()) {
    std::sort(runs_.begin(), runs_.end(),
              [](const SenderRun& a, const SenderRun& b) { return a.id < b.id; });
    // One run per sender: merge_lane restarts a run's per-link counters at
    // 0, which is the per-round (from, to) link sequence only if no sender's
    // sends are split across runs.
    for (std::size_t r = 1; r < runs_.size(); ++r) {
      if (runs_[r - 1].id == runs_[r].id) {
        throw std::invalid_argument("finish_round: sender " + std::to_string(runs_[r].id) +
                                    " is split across runs");
      }
    }
  }
  std::uint64_t total_msgs = 0;
  for (SenderRun& run : runs_) {
    run.base = total_msgs;
    total_msgs += run.sends.size();
  }

  // Annotation — parallel over sender runs, local and remote alike: decide
  // each send's lane twin, repeat and held-copy flags and each unicast's
  // receiver slot once, so that the merge and next round's collect() never
  // look content or a receiver up.
  if (groupings_.size() != threads_) groupings_.resize(threads_);
  run_tasks(runs_.size(), [this](std::size_t r, unsigned slot) {
    annotate_run(runs_[r], groupings_[slot]);
  });

  // Lane l owns the runs of senders from its first slot's id up to the next
  // lane's: every local sender's run lands in the lane that owns its slot,
  // and remote runs split the same ascending way.
  const std::size_t lane_count = lane_starts_.size() - 1;
  run_starts_.assign(lane_count + 1, runs_.size());
  run_starts_[0] = 0;
  for (std::size_t l = 1; l < lane_count; ++l) {
    const NodeId first = dispatches_[lane_starts_[l]].id;
    run_starts_[l] = static_cast<std::size_t>(
        std::lower_bound(runs_.begin(), runs_.end(), first,
                         [](const SenderRun& run, NodeId v) { return run.id < v; }) -
        runs_.begin());
  }

  // Phase 3 — parallel lane merge: no sequential replay pass. Each lane
  // routes the whole round's traffic for its own destination slots.
  run_tasks(lane_count, [this](std::size_t l, unsigned) { merge_lane(l); });

  // Sequential epilogue: fold the lane arenas into the shared engine state
  // in lane order (deterministic), advance the global send stamp past every
  // key handed out this round, and seal the fill lane so next round's
  // concurrent collectors see one flat immutable view.
  for (std::size_t l = 0; l < lane_count; ++l) {
    LaneArena& arena = arenas_[l];
    metrics_.messages += arena.messages;  // sends only: `delivered` stays zero
    metrics_.fanout += arena.fanout;
    if (chaos_) chaos_->commit_batch(arena.chaos_stage);
    if (recorder_) recorder_->record_batch(arena.trace_stage);
    for (LaneArena::Delayed& delayed : arena.delayed_stage) {
      delayed_[delayed.due].emplace_back(delayed.to, std::move(delayed.ref));
    }
  }
  for (const StepArena& arena : step_arenas_) {
    metrics_.messages += arena.messages;  // deliveries only: `sent` stays zero
    metrics_.fanout += arena.fanout;
  }
  for (Dispatch& dispatch : dispatches_) {
    if (dispatch.became_done) metrics_.done_round[dispatch.id] = round_;
  }
  seq_ += 2 * total_msgs;
  lanes_[fill_lane_].seal();
  runs_.clear();
}

bool SyncSimulator::run_until(const std::function<bool()>& pred, Round max_rounds) {
  for (Round i = 0; i < max_rounds; ++i) {
    if (pred()) return true;
    step();
  }
  return pred();
}

bool SyncSimulator::run_until_all_correct_done(Round max_rounds) {
  return run_until(
      [this] {
        bool all = true;
        bool any = false;
        for (const auto& [id, member] : members_) {
          if (member.process->byzantine()) continue;
          any = true;
          all = all && member.process->done();
        }
        return any && all;
      },
      max_rounds);
}

void SyncSimulator::run_rounds(Round count) {
  for (Round i = 0; i < count; ++i) step();
}

Process* SyncSimulator::find(NodeId id) {
  auto it = members_.find(id);
  if (it != members_.end()) return it->second.process.get();
  // Processes added but not yet stepped (joins become effective next round)
  // are still addressable — callers often inspect state right after add.
  for (const auto& pending : pending_joins_) {
    if (pending->id() == id) return pending.get();
  }
  return nullptr;
}

const Process* SyncSimulator::find(NodeId id) const {
  auto it = members_.find(id);
  if (it != members_.end()) return it->second.process.get();
  for (const auto& pending : pending_joins_) {
    if (pending->id() == id) return pending.get();
  }
  return nullptr;
}

const std::vector<NodeId>& SyncSimulator::member_ids() const {
  // Rebuilt only after membership changes — run_until predicates call this
  // every round, and at large n the fresh-vector-per-call cost was visible.
  if (member_ids_dirty_) {
    member_ids_cache_.clear();
    member_ids_cache_.reserve(members_.size());
    for (const auto& [id, member] : members_) member_ids_cache_.push_back(id);
    member_ids_dirty_ = false;
  }
  return member_ids_cache_;
}

}  // namespace idonly
