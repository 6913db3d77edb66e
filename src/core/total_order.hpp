// Total ordering of events in a dynamic network (paper §Application to
// Dynamic Networks, Alg. 6).
//
// Participants may join and leave (adversary-scheduled, subject to n > 3f in
// every round); correct nodes maintain a totally ordered chain of events
// satisfying
//   * chain-prefix — any two correct chains are prefix-comparable;
//   * chain-growth — the chain keeps growing while events are submitted.
//
// Mechanism: every round r, each node broadcasts the event it witnessed
// (tagged with r); events (m, r-1) collected from members form the input
// pairs of a fresh parallel-consensus instance tagged r, run "with respect
// to" the membership view S recorded at instance start (only S members'
// messages are accepted). Round r' becomes FINAL once
// r − r' > 5·|S^{r'}|/2 + 2 (every instance terminates within 5f+2 rounds of
// its start, and |S| > 2f); the chain is the concatenation of the outputs of
// all final instances in increasing instance order.
//
// Finality reads only (round, |S| at start, outputs). An instance's machine
// stops changing once it terminates (its outputs are stable from then on),
// which is O(f) rounds after its start and usually well before its round is
// final, so the node copies the outputs into the instance's record and frees
// the machine in the round it terminates. Only live machines are kept and
// stepped; a terminated one costs its record until finality.
//
// Round-number agreement for joiners uses the present/ack handshake: a
// joiner adopts majority ack round + 1. Faithfulness note (documented in
// DESIGN.md): incumbents add a joiner to S effective two rounds after its
// `present` arrives, which is exactly the round the joiner's own main loop
// starts — the paper's sketch leaves this alignment implicit.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/flat_set.hpp"
#include "common/observer.hpp"
#include "common/types.hpp"
#include "common/value.hpp"
#include "core/parallel_consensus.hpp"
#include "net/process.hpp"

namespace idonly {

/// One agreed event in the output chain.
struct ChainEntry {
  Round instance = 0;   ///< the protocol round whose instance agreed on it
  PairId witness = 0;   ///< node that submitted the event
  double event = 0.0;
  friend bool operator==(const ChainEntry&, const ChainEntry&) = default;
};

class TotalOrderProcess final : public Process {
 public:
  /// `founder` nodes bootstrap together at simulation start (they exchange
  /// `present` in their first round and begin the main loop in their third);
  /// non-founders run the join handshake.
  TotalOrderProcess(NodeId self, bool founder);

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

  /// Queue an event to broadcast in the next round (one event per round is
  /// drained, matching the paper's "v witnesses an event m in round r").
  void submit_event(double event) { pending_events_.push_back(event); }

  /// Announce departure next round; the node keeps participating in
  /// outstanding instances until they terminate, then reports done().
  void request_leave() { leaving_ = true; }

  [[nodiscard]] bool done() const override;

  /// The finalized chain (instances ≤ the largest all-final round R).
  [[nodiscard]] const std::vector<ChainEntry>& chain() const noexcept { return chain_; }
  /// Largest round R such that every instance ≤ R is final (0 = none yet).
  [[nodiscard]] Round finalized_upto() const noexcept { return finalized_upto_; }
  [[nodiscard]] Round protocol_round() const noexcept { return r_; }
  [[nodiscard]] const FlatSet<NodeId>& membership() const noexcept { return members_; }
  [[nodiscard]] std::size_t live_instances() const noexcept;

  /// Non-owning; must outlive the process. Receives kChainExtended events.
  void set_observer(ProtocolObserver* observer) noexcept { observer_ = observer; }

  /// Parallel-consensus machines still held in memory. A machine is freed in
  /// the round its instance terminates, so this equals live_instances() and
  /// stays bounded by the termination time of an instance (O(f) rounds), not
  /// by the longer finality lag, regardless of run length.
  [[nodiscard]] std::size_t retained_machines() const noexcept { return live_machines_; }

 private:
  void main_loop_round(RoundInfo round, std::span<const Message> inbox,
                       std::vector<Outgoing>& out);
  void refresh_chain();

  /// One started instance, from its start until its round is final.
  struct InstanceRecord {
    Round round = 0;
    std::size_t s_size = 0;  ///< |S| recorded at start — the finality clock
    std::unique_ptr<ParallelConsensusMachine> machine;  ///< null once terminated
    std::vector<OutputPair> outputs;  ///< the machine's outputs, set when it terminates
  };

  bool founder_;
  bool joined_ = false;     ///< main loop running
  bool announced_leave_ = false;
  bool leaving_ = false;
  Round r_ = 0;             ///< protocol round counter (shared across nodes)
  FlatSet<NodeId> members_;                     ///< S
  std::map<Round, std::vector<NodeId>> scheduled_adds_;  ///< S-adds by effective round
  std::deque<double> pending_events_;
  std::deque<InstanceRecord> instances_;  ///< non-final instances, ascending round
  std::size_t live_machines_ = 0;         ///< records whose machine is still held
  // Per-round scratch, kept for its capacity.
  std::vector<InputPair> inputs_;
  std::vector<InstanceTag> live_tags_;
  std::vector<Message> machine_out_;
  std::vector<ChainEntry> chain_;
  Round finalized_upto_ = 0;
  ProtocolObserver* observer_ = nullptr;
};

}  // namespace idonly
