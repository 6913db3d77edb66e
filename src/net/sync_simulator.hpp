// Synchronous round-based network simulator — the paper's system model.
//
// Semantics (paper §Model):
//   * Computation proceeds in lock-step rounds; a message sent in round r is
//     delivered at the start of round r+1.
//   * Broadcast reaches *every* current member, including the sender (the
//     self-inclusive reading is explicit in Alg. 4 and implicit in every
//     quorum count of the proofs).
//   * Duplicate identical messages from one sender within a round are
//     discarded at the receiver.
//   * Membership may change between rounds (dynamic networks, §Application
//     to Dynamic Networks): joins become effective at the start of the next
//     round, removals at the end of the current one.
//
// Determinism: processes are stepped in ascending id order and all protocol
// randomness flows from explicit seeds, so a (scenario, seed) pair replays
// bit-identically. With set_threads(k > 1) BOTH halves of a round run on a
// persistent worker pool (net/parallel_exec.hpp): each process's task builds
// its inbox into its worker's buffer and fills a private outbox slab, all in
// parallel, then the destination slots are partitioned into
// contiguous per-worker merge LANES and every lane routes its receivers'
// traffic concurrently. There is no sequential replay pass — order-sensitive
// effects are reconstructed from precomputed deterministic keys (per-slab
// prefix sums over the global send order, per-link chaos sequence counters)
// or staged per lane and committed in lane order, so sequence stamps, chaos
// verdicts, and trace records are bit-identical to the sequential engine for
// every thread count (DESIGN.md §8 gives the argument).
//
// A round splits in two halves, so the same engine also runs one slice of a
// distributed simulation (dist/shard_worker.hpp): begin_round() steps the
// local members and exposes their sends; finish_round() merges those sends
// with other slices' sender-ascending streams and delivers. step() is
// begin_round() followed by finish_round() with no remote streams.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/chaos.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "net/mailbox.hpp"
#include "net/parallel_exec.hpp"
#include "net/process.hpp"

namespace idonly {

class SyncSimulator {
 public:
  SyncSimulator() = default;

  /// Register a process; it participates from the next executed round.
  /// Throws std::invalid_argument when a live or already-queued process
  /// holds the same id. Re-using the id of a process queued for removal is
  /// allowed (the removal lands first at the next step).
  void add_process(std::unique_ptr<Process> process);

  /// Remove a process after the current round (its messages already sent
  /// this round are still delivered). No-op when the id is unknown.
  void remove_process(NodeId id);

  /// One message of a round's traffic as the merge sees it: `to` empty →
  /// broadcast. The sender is stamped inside the ref'd message.
  struct Send {
    std::optional<NodeId> to;
    MessageRef ref;
  };

  /// Execute one synchronous round: begin_round(), then finish_round({}).
  void step();

  /// First half of a round: membership changes, delayed-message flush, then
  /// per member inbox assembly, stepping and outbox wrapping in one task.
  void begin_round();

  /// Call `fn(send)` for each of the local members' sends of the round
  /// begun last, in global send order restricted to local senders
  /// (ascending sender id, then outbox position). Valid between
  /// begin_round() and finish_round().
  template <typename Fn>
  void for_each_local_send(Fn&& fn) const {
    for (const Dispatch& dispatch : dispatches_) {
      for (const Send& send : dispatch.sends) fn(send);
    }
  }

  /// Second half of a round: merge the local sends with `remote_streams` —
  /// the sends of senders hosted elsewhere that reach a local member, one
  /// stream per remote slice, each ascending by sender id, sender sets
  /// pairwise disjoint and disjoint from the local members (stream order is
  /// irrelevant; a sender split across runs throws std::invalid_argument) —
  /// and route them into local mailboxes and the broadcast
  /// lane for delivery at the next begin_round(). A remote sender's
  /// broadcast is one lane deposit here, exactly like a local one; sender-
  /// side accounting (sent, unique payloads, send records, lane dedup hits)
  /// is left to the sender's own engine.
  void finish_round(std::span<const std::vector<Send>> remote_streams = {});

  /// Shard the per-round process stepping across `threads` threads (1 =
  /// sequential, the default). The observable execution — delivery order,
  /// sequence stamps, chaos verdicts, traces — is identical for every
  /// value; only wall-clock changes. May be called between rounds.
  void set_threads(unsigned threads);
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Execute rounds until `pred()` is true or `max_rounds` elapse; returns
  /// true when the predicate fired.
  bool run_until(const std::function<bool()>& pred, Round max_rounds);

  /// Execute until every non-Byzantine process reports done(); returns true
  /// on success within `max_rounds`.
  bool run_until_all_correct_done(Round max_rounds);

  void run_rounds(Round count);

  [[nodiscard]] Round round() const noexcept { return round_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Install a shared chaos schedule (common/chaos.hpp). Every delivery
  /// attempt — broadcast fan-out and unicast alike — is keyed as a
  /// LinkEvent{sent_round, from, to, per-link seq} and the schedule's
  /// verdict applied: drops withhold the message from that receiver, delays
  /// reuse the delayed_ queue, duplicates add a second copy (the model's
  /// per-round dedup suppresses it — the verdict still lands in the shared
  /// trace, which is the cross-engine contract). Corruption cannot mangle a
  /// typed Message; it is recorded in the trace only. Self-delivery is never
  /// faulted. Broadcasts still ride the shared lane: a fault is a per-link
  /// exception (Mailbox::mask), and rounds no phase covers cost nothing
  /// extra unless a recorder wants every verdict. Delaying traffic between
  /// correct nodes deliberately breaks the lock-step model; experiment E6b
  /// does so to show the algorithms need synchrony.
  void set_chaos(std::shared_ptr<ChaosSchedule> chaos) { chaos_ = std::move(chaos); }
  [[nodiscard]] const std::shared_ptr<ChaosSchedule>& chaos() const noexcept { return chaos_; }

  /// Attach a flight recorder (common/trace.hpp): every send, every
  /// delivery, and — when a chaos schedule is installed — every link
  /// verdict is recorded. Off (null) by default; the broadcast fast path is
  /// untouched when no recorder is set.
  void set_trace_recorder(std::shared_ptr<TraceRecorder> recorder) {
    recorder_ = std::move(recorder);
  }
  [[nodiscard]] const std::shared_ptr<TraceRecorder>& trace_recorder() const noexcept {
    return recorder_;
  }

  /// Live process lookup (nullptr when absent). The returned pointer stays
  /// valid until the process is removed.
  [[nodiscard]] Process* find(NodeId id);
  [[nodiscard]] const Process* find(NodeId id) const;

  /// Typed convenience lookup: `sim.get<ConsensusProcess>(id)`.
  template <typename T>
  [[nodiscard]] T* get(NodeId id) {
    return dynamic_cast<T*>(find(id));
  }

  /// Sorted live-member ids. Served from a cache invalidated on membership
  /// change (run_until predicates may call this every round).
  [[nodiscard]] const std::vector<NodeId>& member_ids() const;
  [[nodiscard]] std::size_t member_count() const noexcept { return members_.size(); }

 private:
  struct Member {
    std::unique_ptr<Process> process;
    Round joined_round = 0;  // global round of first participation
    Mailbox mailbox;         // receiver-specific traffic (unicasts, delays, masks)
  };

  /// What a send's content and receiver mean for delivery, decided once per
  /// send by annotate_run() before the merge — so no merge or collect step
  /// looks content or a receiver up. Eight bytes: a round of a two-faced
  /// sender is tens of thousands of unicasts.
  struct SendNote {
    static constexpr std::uint32_t kNoTwin = (1U << 30) - 1;
    /// Position in the run of the sender's first broadcast with equal
    /// content this round (before or after this send); kNoTwin for that
    /// broadcast itself and for content the sender never broadcast.
    std::uint32_t twin : 30 = kNoTwin;
    /// A broadcast repeating content its sender already broadcast: it gets
    /// no lane entry.
    std::uint32_t repeat : 1 = 0;
    /// An earlier send of equal content may already sit in this send's
    /// receivers' mailboxes: an equal unicast to the same receiver, or an
    /// equal repeat broadcast (the first broadcast goes to the lane, not
    /// to mailboxes).
    std::uint32_t maybe_held : 1 = 0;
    /// A unicast's receiver: its dispatch slot, or the slot count when it
    /// is not a member this round (no lane owns it; the message is lost).
    std::uint32_t slot = 0;
  };

  /// One member's slice of a round. The outbox slab, wrapped sends, and done
  /// flags live here so the parallel phases touch only private state;
  /// dispatches_ persists across rounds (the round arena), so steady-state
  /// rounds reuse the slabs' capacity. They still allocate: each distinct
  /// send wraps its message in a new MessageRef cell.
  struct Dispatch {
    NodeId id = 0;
    Member* member = nullptr;
    std::vector<Outgoing> outbox;     // private slab filled by on_round
    std::vector<Send> sends;          // outbox wrapped (stamped + hashed), same order
    std::vector<SendNote> notes;      // one per send, filled by annotate_run
    bool became_done = false;
  };

  /// One sender's messages in the round's merged send order: a local
  /// member's sends or one remote sender's slice of a remote stream.
  struct SenderRun {
    NodeId id = 0;
    bool local = false;
    std::span<const Send> sends;
    SendNote* notes = nullptr;  // one per send: the dispatch's or a remote stream's
    std::uint64_t base = 0;     // visible send ordinal of sends[0] this round
  };

  /// Per-lane scratch state for the parallel merge: every order-sensitive
  /// side effect a lane produces is either keyed deterministically (mailbox
  /// deposits) or staged here lock-free and folded into the shared engine
  /// state in lane order by the sequential epilogue. Cache-line aligned so
  /// concurrent lanes never false-share counters.
  struct alignas(64) LaneArena {
    MessageCounters messages;  // sent
    FanoutCounters fanout;
    // The links of the run being walked, one per receiver slot of this lane:
    // the chaos link key and the link-event sequence number. A sender is
    // exactly one run per round, so its per-link counters start at 0 with
    // its run.
    struct Link {
      ChaosSchedule::LinkKey key;
      std::uint64_t seq = 0;
    };
    std::vector<Link> links;
    std::vector<TraceRecord> trace_stage;       // recorder records, per-ring order
    std::vector<FaultDecision> chaos_stage;     // faulted verdicts only
    struct Delayed {
      Round due = 0;
      NodeId to = 0;
      MessageRef ref;
    };
    std::vector<Delayed> delayed_stage;
  };

  /// One executor worker's share of the stepping phase: the buffer a
  /// receiver's inbox is assembled into right before its step (when it cannot
  /// alias the lane), and the delivery counters and records of the receivers
  /// the worker stepped. One per worker slot, never per member, so at most
  /// `threads` inbox copies exist at once; reused across rounds.
  struct alignas(64) StepArena {
    std::vector<Message> inbox;
    MessageCounters messages;  // delivered
    FanoutCounters fanout;
    std::vector<TraceRecord> deliveries;  // one receiver's, recorded before its step
  };

  /// One executor worker's scratch for annotate_run(): open-addressing
  /// tables over a sender run's contents and over its (content, receiver)
  /// unicast pairs. Grows to the largest run seen and is reused, so
  /// annotating allocates nothing in steady state.
  struct alignas(64) ContentGroups {
    struct Group {
      std::uint32_t first = 0;            // first send with this content
      std::uint32_t first_broadcast = 0;  // first broadcast, or kNone
      std::uint32_t unicasts = 0;
      bool private_seen = false;          // an earlier unicast or repeat broadcast
      bool repeat_seen = false;           // an earlier repeat broadcast
    };
    std::vector<Group> groups;
    std::vector<std::uint32_t> group_of;  // per send
    std::vector<std::uint32_t> contents;  // group index + 1 by content hash; 0 = empty
    std::vector<std::uint32_t> pairs;     // send index + 1 by (group, receiver); 0 = empty
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  };

  /// Run `fn(index, slot)` for index in 0..count on the pool when it exists
  /// (and count warrants it), inline as slot 0 otherwise.
  void run_tasks(std::size_t count, const std::function<void(std::size_t, unsigned)>& fn);
  /// Dispatch slot of a live member (dispatches_ is ascending by id), or
  /// dispatches_.size() when the id is not a member this round.
  [[nodiscard]] std::size_t slot_of(NodeId id) const noexcept;
  /// Phase 3 for one lane: walk every message in merged send order and
  /// apply the effects this lane owns (sender-side bookkeeping and lane
  /// deposits for its runs, deposits/chaos/trace for its receivers). See
  /// DESIGN.md §8.
  void merge_lane(std::size_t lane_index);
  /// Fill `run.notes`: group the run's sends by content (cached hash, then
  /// full MessageRef equality) in `groups`, and resolve each unicast's
  /// receiver slot.
  void annotate_run(const SenderRun& run, ContentGroups& groups) const;

  std::map<NodeId, Member> members_;                 // ordered → deterministic stepping
  std::vector<std::unique_ptr<Process>> pending_joins_;
  std::vector<NodeId> pending_removals_;
  std::vector<Dispatch> dispatches_;                 // round arena, reused across rounds
  std::vector<LaneArena> arenas_;                    // lane arenas, reused across rounds
  std::vector<StepArena> step_arenas_;               // one per worker slot
  std::vector<std::size_t> lane_starts_;  // lane l owns slots [starts[l], starts[l+1])
  std::vector<std::size_t> run_starts_;   // ... and runs [run_starts[l], run_starts[l+1])
  std::vector<std::vector<SendNote>> remote_notes_;  // one per remote stream
  std::vector<ContentGroups> groupings_;             // one per worker slot
  std::vector<SenderRun> runs_;           // merged send order, ascending sender id
  unsigned threads_ = 1;
  std::unique_ptr<ParallelExecutor> executor_;       // live iff threads_ > 1
  mutable std::vector<NodeId> member_ids_cache_;
  mutable bool member_ids_dirty_ = true;
  Round round_ = 0;
  Metrics metrics_;
  std::shared_ptr<ChaosSchedule> chaos_;
  std::shared_ptr<TraceRecorder> recorder_;
  // Broadcast fan-out goes through the shared mailbox layer: one deposit per
  // broadcast instead of a copy per receiver. Two sharded lanes alternate:
  // the one sealed last step is consumed (all members read its flat view)
  // while this step's merge lanes fill the other, one segment per lane.
  ShardedLane lanes_[2];
  int fill_lane_ = 0;    // index of the lane collecting this step's sends
  bool walk_links_ = false;  // this step's merge applies per-link faults/verdicts
  std::optional<std::size_t> chaos_phase_;  // chaos phase covering this step's round
  std::uint64_t seq_ = 0;  // global send-order stamp for lane/mailbox merging
  std::map<Round, std::vector<std::pair<NodeId, MessageRef>>> delayed_;  // due round → deliveries
};

}  // namespace idonly
