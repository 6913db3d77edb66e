#include "net/sync_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace idonly {

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

void SyncSimulator::run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (executor_ != nullptr && count > 1) {
    executor_->run(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
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

  // What the link from `from` to receiver slot `t` does to a message: the
  // chaos verdict (staged for the fault trace and recorded), with the delay
  // hook's delay when chaos neither drops nor delays it.
  const auto link_fault = [&](NodeId from, std::size_t t, const MessageRef& ref) {
    const NodeId to = dispatches_[t].id;
    FaultDecision fault;
    if (chaos_) {
      const std::uint64_t link_seq = arena.link_seq[{from, to}]++;
      const LinkEvent event{round_, from, to, link_seq};
      fault = chaos_->peek(event);
      if (fault.faulted()) arena.chaos_stage.emplace_back(event, fault);
      if (recorder_) arena.trace_stage.push_back(make_link_verdict_record(event, fault));
    }
    if (!fault.drop && fault.delay_rounds == 0 && delay_hook_) {
      fault.delay_rounds = delay_hook_(from, to, ref.get(), round_);
    }
    return fault;
  };

  // A receiver's own copy: unicasts, and broadcasts that repeat content
  // their sender already broadcast this round (the lane holds only the
  // first copy).
  const auto deposit_private = [&](NodeId to, Member& member, const MessageRef& ref,
                                   std::uint64_t key, const FaultDecision& fault) {
    if (fault.drop) return;
    if (fault.duplicate) {
      // Second copy: the model discards duplicate identical messages from
      // one sender within a round, so it dies in mailbox dedup — the
      // decision is what must reproduce, and it is in the trace.
      if (!member.mailbox.deposit(ref, key)) arena.fanout.dedup_hits += 1;
    }
    if (fault.delay_rounds > 0) {
      arena.delayed_stage.push_back({round_ + 1 + fault.delay_rounds, to, ref});
      return;
    }
    if (!member.mailbox.deposit(ref, key + 1)) arena.fanout.dedup_hits += 1;
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
    for (std::size_t m = 0; m < run.sends.size(); ++m) {
      const Send& send = run.sends[m];
      const MessageRef& ref = send.ref;
      // Two deposit keys per visible send ordinal: a chaos duplicate copy
      // takes `key`, the primary copy `key + 1` — duplicate-before-primary,
      // exactly the sequential engine's deposit order. Only relative order
      // is observable, so the gaps left by unfaulted messages (and by
      // traffic another slice never shows this one) are free.
      const std::uint64_t key = seq_ + 2 * (run.base + m);
      const bool repeat = walk_links_ && repeats_[run.base + m] != 0;
      if (own_run) {
        if (run.local) {
          arena.messages.sent[static_cast<std::size_t>(ref->kind)] += 1;
          arena.fanout.unique_payloads += 1;
          if (tracing_) arena.debug_stage.push_back(TraceEntry{round_, run.id, send.to, ref.get()});
          if (recorder_) arena.trace_stage.push_back(make_send_record(run.id, round_, send.to));
        }
        if (!send.to.has_value() && !repeat) {
          // A broadcast is one deposit into this lane's segment, faults or
          // not. Segments cover ascending sender ranges, so seal()'s
          // concatenation is globally key-ordered. A remote sender's repeat
          // is its own engine's dedup hit.
          if (!segment.deposit(ref, key) && run.local) arena.fanout.dedup_hits += 1;
        }
      }
      if (send.to.has_value()) {
        const std::size_t t = slot_of(*send.to);
        if (t >= begin && t < end) {  // recipient gone → no lane owns it; message lost
          deposit_private(*send.to, *dispatches_[t].member, ref, key, link_fault(run.id, t, ref));
        }
      } else if (walk_links_) {
        for (std::size_t t = begin; t < end; ++t) {
          const NodeId to = dispatches_[t].id;
          Member& member = *dispatches_[t].member;
          const FaultDecision fault = link_fault(run.id, t, ref);
          if (repeat) {
            deposit_private(to, member, ref, key, fault);
          } else {
            except_from_lane(to, member, ref, key, fault);
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

  // Deliver synchrony-fault-delayed messages that are due this round. They
  // land in the receiver's private mailbox AFTER last round's routed
  // traffic (their sequence numbers are fresher), preserving the historical
  // "delayed messages arrive at the back of the inbox" order.
  for (auto it = delayed_.begin(); it != delayed_.end() && it->first <= round_;) {
    for (auto& [to, ref] : it->second) {
      auto member = members_.find(to);
      if (member == members_.end()) continue;
      if (!member->second.mailbox.deposit(ref, seq_++)) metrics_.fanout.dedup_hits += 1;
    }
    it = delayed_.erase(it);
  }

  // Flip lanes: the lane sealed last step is consumed by every member this
  // step; this step's merge lanes fill the other.
  ShardedLane& deliver_lane = lanes_[fill_lane_];
  fill_lane_ ^= 1;

  // The dispatch arena persists across rounds: slab/scratch capacity from
  // the previous round is reused, so steady-state rounds allocate nothing.
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

  // Lane plan: contiguous destination-slot ranges, one per worker. A user
  // delay hook is an arbitrary (possibly stateful) std::function, so it must
  // see deposits in the sequential order — collapse the merge to one lane
  // (the fill phase still parallelises; the hook only runs in the merge).
  std::size_t lane_count =
      (executor_ != nullptr && delay_hook_ == nullptr) ? std::min<std::size_t>(threads_, n) : 1;
  if (lane_count == 0) lane_count = 1;
  lane_starts_.assign(lane_count + 1, 0);
  for (std::size_t l = 0; l <= lane_count; ++l) lane_starts_[l] = n * l / lane_count;
  if (arenas_.size() < lane_count) arenas_.resize(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    LaneArena& arena = arenas_[l];
    arena.messages = MessageCounters{};
    arena.fanout.reset();
    arena.link_seq.clear();  // link-event sequence numbers are per sent-round
    arena.trace_stage.clear();
    arena.chaos_stage.clear();
    arena.delayed_stage.clear();
    arena.debug_stage.clear();
  }
  lanes_[fill_lane_].reset(lane_count);

  // Phase 1 — parallel inbox assembly, one task per lane: every member's
  // inbox is built BEFORE anyone steps (lock-step semantics, no same-round
  // delivery). Each lane collects only its own slots' mailboxes against the
  // sealed (read-only) deliver lane, staging delivery records and counters
  // in its arena.
  run_tasks(lane_count, [&](std::size_t l) {
    LaneArena& arena = arenas_[l];
    for (std::size_t s = lane_starts_[l]; s < lane_starts_[l + 1]; ++s) {
      Dispatch& dispatch = dispatches_[s];
      Member& member = *dispatch.member;
      // A member admitted at the start of THIS step was not a receiver of
      // last round's broadcasts — it gets no lane, and its mailbox is empty.
      const ShardedLane* lane = member.joined_round == round_ ? nullptr : &deliver_lane;
      dispatch.inbox =
          member.mailbox.collect(lane, member.scratch, &arena.fanout, &arena.messages);
      if (recorder_) {
        for (const Message& msg : dispatch.inbox) {
          arena.trace_stage.push_back(make_deliver_record(dispatch.id, round_, msg.sender));
        }
      }
    }
  });
  if (recorder_) {
    // Flush delivery records before the merge stages send/verdict records
    // into the same buffers. A node's records are staged by exactly one lane,
    // so per-ring order (what every export is built from) is lane-local and
    // thread-count-independent; flushing in lane order keeps it fully
    // deterministic.
    for (std::size_t l = 0; l < lane_count; ++l) {
      recorder_->record_batch(arenas_[l].trace_stage);
      arenas_[l].trace_stage.clear();
    }
  }

  // The merge walks every (sender, receiver) link only when a link may be
  // faulted or observed: a chaos phase covers this round, a recorder logs
  // every verdict, or a delay hook may hold any message. Otherwise a
  // broadcast is one lane deposit and nothing else.
  walk_links_ = delay_hook_ != nullptr ||
                (chaos_ != nullptr && (recorder_ != nullptr || chaos_->phase_for(round_)));

  // Phase 2 — parallel stepping, one task per process: each steps into its
  // private outbox slab, then stamps and wraps its messages (the content
  // hashing is the round's other big CPU sink). No shared engine state is
  // touched; inbox spans stay valid because routing hasn't started.
  run_tasks(n, [this](std::size_t index) {
    Dispatch& dispatch = dispatches_[index];
    Member& member = *dispatch.member;
    const bool was_done = member.process->done();
    RoundInfo info{round_, round_ - member.joined_round + 1};
    member.process->on_round(info, dispatch.inbox, dispatch.outbox);
    dispatch.became_done = !was_done && member.process->done();
    dispatch.sends.reserve(dispatch.outbox.size());
    for (Outgoing& out : dispatch.outbox) {
      Message msg = std::move(out.msg);
      msg.sender = dispatch.id;  // unforgeable identity
      dispatch.sends.push_back(Send{out.to, MessageRef::wrap(std::move(msg))});
    }
  });
}

void SyncSimulator::mark_repeats(std::span<const Send> sends, std::vector<std::uint8_t>& marks) {
  // A broadcast repeating content its sender already broadcast this round
  // gets no lane entry; the merge routes it per receiver, so a receiver the
  // first copy missed still gets the repeat, in its place.
  std::unordered_set<MessageRef, MessageRefHash> broadcasts;
  for (const Send& send : sends) {
    marks.push_back(!send.to.has_value() && !broadcasts.insert(send.ref).second ? 1 : 0);
  }
}

void SyncSimulator::finish_round(std::span<const std::vector<Send>> remote_streams) {
  // Merge on sender id: one run per local member with sends, one per
  // remote sender (a remote stream is ascending by sender, so each sender's
  // sends are contiguous). Sender sets are disjoint, so ordering the runs
  // by sender id replays the visible subsequence of the global send order.
  // Each run's `base` is its visible send ordinal — every deposit key
  // derives from these, so keys are thread-count-invariant.
  runs_.clear();
  for (const Dispatch& dispatch : dispatches_) {
    if (!dispatch.sends.empty()) runs_.push_back({dispatch.id, true, dispatch.sends, 0});
  }
  for (const std::vector<Send>& stream : remote_streams) {
    for (std::size_t begin = 0, end = 0; begin < stream.size(); begin = end) {
      const NodeId sender = stream[begin].ref->sender;
      while (end < stream.size() && stream[end].ref->sender == sender) ++end;
      runs_.push_back({sender, false, std::span(stream).subspan(begin, end - begin), 0});
    }
  }
  if (!remote_streams.empty()) {
    std::sort(runs_.begin(), runs_.end(),
              [](const SenderRun& a, const SenderRun& b) { return a.id < b.id; });
  }
  repeats_.clear();
  std::uint64_t total_msgs = 0;
  for (SenderRun& run : runs_) {
    run.base = total_msgs;
    total_msgs += run.sends.size();
    if (walk_links_) mark_repeats(run.sends, repeats_);
  }

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
  run_tasks(lane_count, [this](std::size_t l) { merge_lane(l); });

  // Sequential epilogue: fold the lane arenas into the shared engine state
  // in lane order (deterministic), advance the global send stamp past every
  // key handed out this round, and seal the fill lane so next round's
  // concurrent collectors see one flat immutable view.
  for (std::size_t l = 0; l < lane_count; ++l) {
    LaneArena& arena = arenas_[l];
    for (std::size_t k = 0; k < MessageCounters::kKinds; ++k) {
      metrics_.messages.sent[k] += arena.messages.sent[k];
      metrics_.messages.delivered[k] += arena.messages.delivered[k];
    }
    metrics_.fanout.deliveries += arena.fanout.deliveries;
    metrics_.fanout.unique_payloads += arena.fanout.unique_payloads;
    metrics_.fanout.dedup_hits += arena.fanout.dedup_hits;
    metrics_.fanout.bytes_delivered += arena.fanout.bytes_delivered;
    metrics_.fanout.slab_sends += arena.fanout.slab_sends;
    metrics_.fanout.send_failures += arena.fanout.send_failures;
    if (chaos_) chaos_->commit_batch(arena.chaos_stage);
    if (recorder_) recorder_->record_batch(arena.trace_stage);
    for (LaneArena::Delayed& delayed : arena.delayed_stage) {
      delayed_[delayed.due].emplace_back(delayed.to, std::move(delayed.ref));
    }
    if (tracing_) {
      for (TraceEntry& entry : arena.debug_stage) {
        if (trace_.size() >= trace_capacity_) trace_.pop_front();
        trace_.push_back(std::move(entry));
      }
    }
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

void SyncSimulator::enable_trace(std::size_t capacity) {
  tracing_ = true;
  trace_capacity_ = capacity == 0 ? 1 : capacity;
}

std::string SyncSimulator::dump_trace(std::optional<Round> only_round) const {
  std::string out;
  for (const TraceEntry& entry : trace_) {
    if (only_round.has_value() && entry.round != *only_round) continue;
    out += "r" + std::to_string(entry.round) + " " + std::to_string(entry.from) + " -> ";
    out += entry.to.has_value() ? std::to_string(*entry.to) : std::string("*");
    out += " " + entry.msg.to_string() + "\n";
  }
  return out;
}

void SyncSimulator::for_each_correct(const std::function<void(Process&)>& fn) {
  for (auto& [id, member] : members_) {
    if (!member.process->byzantine()) fn(*member.process);
  }
}

}  // namespace idonly
