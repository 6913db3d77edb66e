#include "net/async_simulator.hpp"

#include <cassert>

namespace idonly {

AsyncProcess::~AsyncProcess() = default;

AsyncSimulator::AsyncSimulator(DelayModel delay) : delay_(std::move(delay)) {
  assert(delay_ != nullptr);
}

void AsyncSimulator::add_process(std::unique_ptr<AsyncProcess> process) {
  assert(!started_ && "add processes before run()");
  const NodeId id = process->id();
  processes_.emplace(id, std::move(process));
}

void AsyncSimulator::dispatch_out(NodeId from, const std::vector<AsyncOutgoing>& out) {
  for (const AsyncOutgoing& o : out) {
    // Wrap once; a broadcast's n events share the payload by reference.
    Message msg = o.msg;
    msg.sender = from;
    const MessageRef ref = MessageRef::wrap(std::move(msg));
    auto deliver_to = [&](NodeId to) {
      const Time latency = delay_(from, to, ref.get(), now_);
      if (latency < 0) return;  // delay model may drop (models "never delivered" in a run prefix)
      queue_.push(Event{now_ + latency, seq_++, to, /*is_timer=*/false, ref});
    };
    if (o.to.has_value()) {
      deliver_to(*o.to);
    } else {
      for (const auto& [id, p] : processes_) deliver_to(id);
    }
  }
}

void AsyncSimulator::rearm_timer(AsyncProcess& p) {
  const auto deadline = p.timer_deadline();
  if (!deadline.has_value()) {
    armed_timer_.erase(p.id());
    return;
  }
  auto it = armed_timer_.find(p.id());
  if (it != armed_timer_.end() && it->second == *deadline) return;  // already queued
  armed_timer_[p.id()] = *deadline;
  queue_.push(Event{*deadline, seq_++, p.id(), /*is_timer=*/true, MessageRef{}});
}

void AsyncSimulator::run(Time horizon) {
  std::vector<AsyncOutgoing> out;
  if (!started_) {
    started_ = true;
    for (auto& [id, p] : processes_) {
      out.clear();
      p->on_start(now_, out);
      dispatch_out(id, out);
      rearm_timer(*p);
    }
  }
  while (!queue_.empty()) {
    Event ev = queue_.top();
    if (ev.at > horizon) break;
    queue_.pop();
    now_ = ev.at;
    auto it = processes_.find(ev.to);
    if (it == processes_.end()) continue;
    AsyncProcess& p = *it->second;
    out.clear();
    if (ev.is_timer) {
      // Stale timer events (deadline was re-armed since) are skipped.
      auto armed = armed_timer_.find(ev.to);
      if (armed == armed_timer_.end() || armed->second != ev.at) continue;
      armed_timer_.erase(armed);
      p.on_timer(now_, out);
    } else {
      p.on_message(now_, ev.msg.get(), out);
    }
    dispatch_out(ev.to, out);
    rearm_timer(p);
  }
}

AsyncProcess* AsyncSimulator::find(NodeId id) {
  auto it = processes_.find(id);
  return it == processes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> AsyncSimulator::ids() const {
  std::vector<NodeId> out;
  out.reserve(processes_.size());
  for (const auto& [id, p] : processes_) out.push_back(id);
  return out;
}

}  // namespace idonly
