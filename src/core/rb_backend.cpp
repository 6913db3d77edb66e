#include "core/rb_backend.hpp"

#include "common/flat_set.hpp"
#include "common/thresholds.hpp"
#include "core/participant_tracker.hpp"

namespace idonly {

namespace {

Message make_payload(NodeId source, const Value& payload) {
  Message m;
  m.kind = MsgKind::kPayload;
  m.subject = source;
  m.value = payload;
  return m;
}

Message make_echo(NodeId source, const Value& payload) {
  Message m;
  m.kind = MsgKind::kEcho;
  m.subject = source;
  m.value = payload;
  return m;
}

/// Paper Alg. 1 (n > 3f): round 1 payload/present, round 2 echo on direct
/// payload, rounds 3+ amplification — ≥ n_v/3 echoes re-echo every round,
/// ≥ 2n_v/3 accept.
class Alg1Backend final : public RbBackend {
 public:
  Alg1Backend(NodeId self, NodeId source, Value payload)
      : self_(self), source_(source), payload_(payload) {}

  std::optional<Value> on_round(RoundInfo round, std::span<const Message> inbox,
                                std::size_t n_v, std::vector<Outgoing>& out) override {
    // Accumulate echo(m, s) senders from every round (cumulative distinct
    // counting). A Byzantine source may put several payloads m in flight;
    // each is tracked independently. Once accepted, the amplification loop
    // below breaks before reading a tally, so tallying stops too.
    if (!accepted_) {
      for (const Message& m : inbox) {
        if (m.kind == MsgKind::kEcho && m.subject == source_) echoes_.add(m.value, m.sender);
      }
    }

    if (round.local == 1) {
      // Round 1: the source broadcasts (m, s); everyone else announces
      // `present` so that n_v at every node includes all correct nodes.
      if (self_ == source_) {
        broadcast(out, make_payload(source_, payload_));
      } else {
        broadcast(out, Message{.kind = MsgKind::kPresent});
      }
      return std::nullopt;
    }

    if (round.local == 2) {
      // Round 2: echo the payload if it arrived directly from s.
      for (const Message& m : inbox) {
        if (m.kind == MsgKind::kPayload && m.sender == source_ && m.subject == source_) {
          broadcast(out, make_echo(source_, m.value));
          break;  // a correct source sends one payload; take the first
        }
      }
      return std::nullopt;
    }

    // Rounds 3..∞: the amplification loop.
    std::optional<Value> newly_accepted;
    for (const auto& [payload, senders] : echoes_.all()) {
      if (accepted_) break;
      if (at_least_one_third(senders.size(), n_v)) {
        broadcast(out, make_echo(source_, payload));
      }
      if (at_least_two_thirds(senders.size(), n_v)) {
        accepted_ = true;
        newly_accepted = payload;
      }
    }
    return newly_accepted;
  }

 private:
  NodeId self_;
  NodeId source_;
  Value payload_;
  /// Distinct senders of echo(m, s), keyed by the echoed payload m.
  QuorumCounter<Value> echoes_;
  bool accepted_ = false;
};

/// Imbs–Raynal 2-phase backend under the unknown-n adaptation (n > 5f, see
/// common/thresholds.hpp): round 1 payload/present as in Alg. 1; a node
/// WITNESSES a payload at most once — on direct receipt from s (round 2) or
/// on seeing witnesses from ≥ 3n_v/5 distinct nodes (join); it accepts at
/// ≥ 4n_v/5 witnesses. Versus Alg. 1 this removes the every-round re-echo:
/// steady-state rounds after everyone has witnessed carry no RB traffic.
/// A correct source still yields acceptance in round 3; a Byzantine partial
/// send can make relay take two rounds (witness cascade, then the joiners'
/// witnesses landing), which is why Imbs scenarios assert agreement rather
/// than the one-round relay bound.
class ImbsBackend final : public RbBackend {
 public:
  ImbsBackend(NodeId self, NodeId source, Value payload)
      : self_(self), source_(source), payload_(payload) {}

  std::optional<Value> on_round(RoundInfo round, std::span<const Message> inbox,
                                std::size_t n_v, std::vector<Outgoing>& out) override {
    // Witness messages reuse the kEcho kind (see header): cumulative
    // distinct-sender counting per payload, exactly like Alg. 1 echoes.
    for (const Message& m : inbox) {
      if (m.kind == MsgKind::kEcho && m.subject == source_) witnesses_.add(m.value, m.sender);
    }

    if (round.local == 1) {
      if (self_ == source_) {
        broadcast(out, make_payload(source_, payload_));
      } else {
        broadcast(out, Message{.kind = MsgKind::kPresent});
      }
      return std::nullopt;
    }

    if (round.local == 2) {
      // Phase 1 → phase 2: witness the payload received directly from s.
      for (const Message& m : inbox) {
        if (m.kind == MsgKind::kPayload && m.sender == source_ && m.subject == source_) {
          if (witnessed_.insert(m.value)) broadcast(out, make_echo(source_, m.value));
          break;  // a correct source sends one payload; take the first
        }
      }
      return std::nullopt;
    }

    // Rounds 3..∞: join the witness quorum (once per payload) and accept.
    std::optional<Value> newly_accepted;
    for (const auto& [payload, senders] : witnesses_.all()) {
      if (accepted_) break;
      if (at_least_three_fifths(senders.size(), n_v) && !witnessed_.contains(payload)) {
        witnessed_.insert(payload);
        broadcast(out, make_echo(source_, payload));
      }
      if (at_least_four_fifths(senders.size(), n_v)) {
        accepted_ = true;
        newly_accepted = payload;
      }
    }
    return newly_accepted;
  }

 private:
  NodeId self_;
  NodeId source_;
  Value payload_;
  /// Distinct senders of witness(m, s), keyed by the witnessed payload m.
  QuorumCounter<Value> witnesses_;
  /// Payloads this node has already witnessed (witness-once policy).
  FlatSet<Value> witnessed_;
  bool accepted_ = false;
};

}  // namespace

const char* to_string(RbBackendKind kind) noexcept {
  switch (kind) {
    case RbBackendKind::kAlg1:
      return "alg1";
    case RbBackendKind::kImbs:
      return "imbs";
  }
  return "alg1";
}

std::optional<RbBackendKind> parse_rb_backend(std::string_view name) noexcept {
  if (name == "alg1") return RbBackendKind::kAlg1;
  if (name == "imbs") return RbBackendKind::kImbs;
  return std::nullopt;
}

std::unique_ptr<RbBackend> make_rb_backend(RbBackendKind kind, NodeId self, NodeId source,
                                           Value payload) {
  if (kind == RbBackendKind::kImbs) {
    return std::make_unique<ImbsBackend>(self, source, payload);
  }
  return std::make_unique<Alg1Backend>(self, source, payload);
}

}  // namespace idonly
