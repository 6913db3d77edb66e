#include "dist/shard_worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <variant>

#include "dist/shard_mesh.hpp"
#include "net/codec.hpp"

namespace idonly {

ShardWorker::ShardWorker(const ShardInit& init) : shard_(init.shard), shards_(init.shards) {
  auto parsed = parse_script(init.script_text);
  if (const auto* err = std::get_if<ParseError>(&parsed)) {
    throw std::invalid_argument("script parse error at line " + std::to_string(err->line) +
                                ": " + err->message);
  }
  script_ = std::get<ScenarioScript>(std::move(parsed));

  scenario_ = make_scenario(script_.config);
  const std::vector<NodeId> all_ids = scenario_.all_ids();
  plan_ = ShardPlan::build(all_ids, shards_);

  if (!script_.chaos_phases.empty()) {
    chaos_ = std::make_shared<ChaosSchedule>(
        materialize_chaos_plan(script_.chaos_phases, all_ids), script_.config.seed);
    engine_.set_chaos(chaos_);
  }
  if (init.want_trace) {
    recorder_ = std::make_shared<TraceRecorder>(TraceEngine::kSync);
    engine_.set_trace_recorder(recorder_);
    observer_ = std::make_unique<TraceObserver>(recorder_);
  }

  // Construct EVERY process (correct and adversary — the adversaries share
  // one seed-derived Rng stream, so skipping any would shift the rest) and
  // keep only this shard's slice.
  build_processes(
      scenario_,
      [&](NodeId id, std::size_t index) {
        return make_loop_process(script_, scenario_, id, index);
      },
      [&](std::unique_ptr<Process> process) {
        if (plan_.owner(process->id()) == shard_) engine_.add_process(std::move(process));
      });
  // Initial correct nodes report protocol events into the flight recorder
  // (the coordinator's monitor replays decisions from the results instead).
  prime_loop_nodes(scenario_, [&](NodeId id) { return engine_.find(id); }, observer_.get());

  churn_ = std::make_unique<ChurnDriver>(script_, scenario_);
  writers_.resize(shards_);
}

std::vector<ShardWorker::OutboundSlab> ShardWorker::begin_round() {
  const Round next = engine_.round() + 1;
  churn_->apply(
      next,
      [&](NodeId id, std::size_t joiner_index) {
        return make_loop_joiner(script_, scenario_, id, joiner_index);
      },
      [&](std::unique_ptr<Process> process) {
        if (process != nullptr && plan_.owner(process->id()) == shard_) {
          engine_.add_process(std::move(process));
        }
      },
      [&](NodeId id) {
        // A leaver's decision still counts for the invariant monitor, which
        // watches every initial correct node.
        if (const Process* p = engine_.find(id)) departed_.emplace_back(id, node_outcome(*p));
        engine_.remove_process(id);
      });

  engine_.begin_round();

  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (s != shard_) writers_[s].reset(shard_, engine_.round());
  }
  // One encode per wrap: the engine wraps a run of equal sends once, so a
  // send whose message is the cell last encoded reuses that frame, and a
  // broadcast is encoded once for every peer. add_frame() writes what add()
  // would, so the slab bytes are the per-send encoding's. The cell pointer
  // is compared only within this round, while every send's cell is alive.
  const Message* framed = nullptr;
  const auto frame = [&](const Message& msg) -> std::span<const std::byte> {
    if (&msg != framed) {
      frame_.clear();
      encode(msg, frame_);
      framed = &msg;
    }
    return frame_;
  };
  engine_.for_each_local_send([&](const SyncSimulator::Send& send) {
    if (send.to.has_value()) {
      const std::uint32_t dest = plan_.owner(*send.to);
      if (dest != shard_) writers_[dest].add_frame(send.to, frame(send.ref.get()));
    } else {
      for (std::uint32_t s = 0; s < shards_; ++s) {
        if (s != shard_) writers_[s].add_frame(std::nullopt, frame(send.ref.get()));
      }
    }
  });
  std::vector<OutboundSlab> out;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (s != shard_ && !writers_[s].empty()) out.push_back({s, writers_[s].bytes()});
  }
  return out;
}

bool ShardWorker::decode_peer_slab(std::span<const std::byte> bytes,
                                   std::vector<SyncSimulator::Send>& stream) {
  if (!parse_shard_slab(bytes, view_)) {
    wire_faults_.truncations += 1;
    error_ = "shard " + std::to_string(shard_) + ": malformed shard slab in round " +
             std::to_string(engine_.round());
    return false;
  }
  if (view_.round != engine_.round() || view_.shard == shard_ || view_.shard >= shards_) {
    wire_faults_.truncations += 1;
    error_ = "shard " + std::to_string(shard_) + ": shard slab header mismatch (from shard " +
             std::to_string(view_.shard) + ", round " + std::to_string(view_.round) +
             ", local round " + std::to_string(engine_.round()) + ")";
    return false;
  }
  stream.reserve(view_.entries.size());
  for (std::size_t i = 0; i < view_.entries.size(); ++i) {
    const ShardSlabView::Entry& entry = view_.entries[i];
    // A run of byte-equal frames (a two-faced sender's unicasts of one
    // content, or one message sent to several receivers here) is one
    // decode and one wrap. decode() is pure, so equal bytes decode to equal
    // messages, sender included; ±0.0 encode differently and never share.
    if (i > 0 && std::ranges::equal(entry.frame, view_.entries[i - 1].frame)) {
      MessageRef shared = stream.back().ref;
      stream.push_back({entry.to, std::move(shared)});
      continue;
    }
    auto msg = decode(entry.frame);
    if (!msg.has_value()) {
      wire_faults_.corrupts += 1;
      error_ = "shard " + std::to_string(shard_) + ": undecodable frame from shard " +
               std::to_string(view_.shard) + " in round " + std::to_string(engine_.round());
      return false;
    }
    stream.push_back({entry.to, MessageRef::wrap(*std::move(msg))});
  }
  return true;
}

void ShardWorker::merge_round(std::span<const std::vector<SyncSimulator::Send>> streams) {
  engine_.finish_round(streams);
}

ShardStatus ShardWorker::status() {
  ShardStatus out;
  for (NodeId id : engine_.member_ids()) {
    Process* p = engine_.find(id);
    if (p == nullptr || p->byzantine()) continue;
    out.done.emplace_back(id, p->done());
  }
  return out;
}

ShardResult ShardWorker::finalize() {
  ShardResult result;
  result.metrics = engine_.metrics();
  if (chaos_ != nullptr) {
    result.has_chaos = true;
    result.chaos = chaos_->counters();
  }
  result.wire_faults = wire_faults_;
  result.nodes = std::move(departed_);
  for (NodeId id : engine_.member_ids()) {
    const Process* p = engine_.find(id);
    if (p != nullptr && !p->byzantine()) result.nodes.emplace_back(id, node_outcome(*p));
  }
  if (recorder_ != nullptr) {
    // snapshot() groups records by ascending node id in capture order, and
    // ring_stats() lists the rings in the same order: one pass cuts the
    // snapshot into the exact slices absorb_ring() wants on the coordinator
    // side.
    std::vector<TraceRecord> records = recorder_->snapshot();
    auto next = records.begin();
    for (const TraceRecorder::RingStats& stats : recorder_->ring_stats()) {
      ShardResult::Ring ring;
      ring.node = stats.node;
      ring.next_seq = stats.next_seq;
      ring.evicted = stats.evicted;
      auto end = next;
      while (end != records.end() && end->node == stats.node) ++end;
      ring.records.assign(std::make_move_iterator(next), std::make_move_iterator(end));
      next = end;
      result.rings.push_back(std::move(ring));
    }
  }
  return result;
}

int run_worker_loop(const ShardInit& init, int fd, std::vector<int> peer_fds) {
  std::vector<std::byte> payload;
  ShardMsgType type{};
  const auto fail = [fd](const std::string& message) {
    ByteWriter w;
    w.str(message);
    (void)send_frame(fd, ShardMsgType::kError, w.bytes());
    return kWorkerFailedExit;
  };

  std::unique_ptr<ShardWorker> worker;
  try {
    worker = std::make_unique<ShardWorker>(init);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  // One shard has zero peers: every exchange is a no-op. A missing peer
  // socket would silently drop that shard's traffic, so it fails the run.
  MeshExchange mesh(init.shard, std::move(peer_fds));
  if (mesh.peer_count() + 1 != init.shards) {
    return fail("mesh wiring mismatch: shard " + std::to_string(init.shard) + " holds " +
                std::to_string(mesh.peer_count()) + " peer sockets for " +
                std::to_string(init.shards) + " shards");
  }

  for (;;) {
    if (recv_frame(fd, type, payload, -1) != RecvStatus::kOk) return kWorkerFailedExit;
    switch (type) {
      case ShardMsgType::kStep: {
        if (init.crash_at_round > 0 && worker->round() + 1 >= init.crash_at_round) {
          // Crash test hook: die without a word — no kError, no reply. The
          // coordinator must turn the resulting EOF into a clean failure,
          // and the peers must turn the mesh-socket EOF into kError, not a
          // hang.
          _exit(13);
        }
        // The whole round: post outbound slabs (beacons for quiet peers)
        // without blocking, decode peer slabs in arrival order, merge,
        // status. The coordinator never sees a slab byte.
        const auto slabs = worker->begin_round();
        const Round round = worker->round();
        std::vector<std::span<const std::byte>> by_shard(worker->shards());
        for (const ShardWorker::OutboundSlab& slab : slabs) by_shard[slab.dest] = slab.bytes;
        std::string mesh_error;
        std::vector<std::vector<SyncSimulator::Send>> streams;
        streams.reserve(mesh.peer_count());
        bool ok = mesh.post_round(round, by_shard, mesh_error);
        if (ok) {
          ok = mesh.collect_round(
              round,
              [&](std::uint32_t, std::span<const std::byte> bytes) {
                std::vector<SyncSimulator::Send> stream;
                if (!worker->decode_peer_slab(bytes, stream)) return false;
                streams.push_back(std::move(stream));
                return true;
              },
              mesh_error);
        }
        if (!ok) return fail(worker->error().empty() ? mesh_error : worker->error());
        try {
          worker->merge_round(streams);  // rejects a peer stream that splits a sender
        } catch (const std::exception& e) {
          return fail(e.what());
        }
        if (!send_frame(fd, ShardMsgType::kStatus, encode_status(worker->status()))) {
          return kWorkerFailedExit;
        }
        break;
      }
      case ShardMsgType::kFinish: {
        ShardResult result = worker->finalize();
        result.metrics.overlap = mesh.counters();
        if (!send_frame(fd, ShardMsgType::kResult, encode_result(result))) {
          return kWorkerFailedExit;
        }
        return 0;
      }
      default:
        return fail("unexpected control frame");
    }
  }
}

}  // namespace idonly
