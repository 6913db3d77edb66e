#include "common/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace idonly {

namespace {

/// Minimal JSON string escaping for the `detail` field.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The canonical export's strict-weak order: (round, from, to, link_seq,
/// kind).
bool canonical_record_less(const TraceRecord& a, const TraceRecord& b) noexcept {
  if (a.round != b.round) return a.round < b.round;
  if (a.from != b.from) return a.from < b.from;
  if (a.to != b.to) return a.to < b.to;
  if (a.link_seq != b.link_seq) return a.link_seq < b.link_seq;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

/// One record as a full-export JSONL line (no trailing newline).
std::string to_jsonl_line(const TraceRecord& rec, TraceEngine engine) {
  std::ostringstream os;
  os << "{\"engine\":\"" << to_string(engine) << "\",\"node\":" << rec.node
     << ",\"seq\":" << rec.seq << ",\"kind\":\"" << to_string(rec.kind)
     << "\",\"round\":" << rec.round << ",\"from\":" << rec.from << ",\"to\":" << rec.to
     << ",\"link_seq\":" << rec.link_seq << ",\"extra\":" << rec.extra;
  if (!rec.detail.empty()) os << ",\"detail\":\"" << json_escape(rec.detail) << "\"";
  os << "}";
  return os.str();
}

/// One canonical record as a canonical-export line.
std::string to_canonical_line(const TraceRecord& rec) {
  std::ostringstream os;
  os << "{\"kind\":\"" << to_string(rec.kind) << "\",\"round\":" << rec.round
     << ",\"from\":" << rec.from << ",\"to\":" << rec.to << ",\"seq\":" << rec.link_seq
     << ",\"extra\":" << rec.extra << "}";
  return os.str();
}

}  // namespace

const char* to_string(TraceEngine engine) noexcept {
  switch (engine) {
    case TraceEngine::kSync: return "sync";
    case TraceEngine::kRuntime: return "runtime";
  }
  return "?";
}

const char* to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kLinkClean: return "link_clean";
    case TraceEventKind::kLinkDrop: return "link_drop";
    case TraceEventKind::kLinkDuplicate: return "link_dup";
    case TraceEventKind::kLinkDelay: return "link_delay";
    case TraceEventKind::kLinkCorrupt: return "link_corrupt";
    case TraceEventKind::kSend: return "send";
    case TraceEventKind::kDeliver: return "deliver";
    case TraceEventKind::kLateFrame: return "late_frame";
    case TraceEventKind::kProtocol: return "protocol";
  }
  return "?";
}

bool is_canonical(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kLinkClean:
    case TraceEventKind::kLinkDrop:
    case TraceEventKind::kLinkDuplicate:
    case TraceEventKind::kLinkDelay:
    case TraceEventKind::kLinkCorrupt: return true;
    default: return false;
  }
}

TraceRecord make_send_record(NodeId node, Round round, std::optional<NodeId> to) noexcept {
  return TraceRecord{.kind = TraceEventKind::kSend,
                     .node = node,
                     .round = round,
                     .seq = 0,
                     .from = node,
                     .to = to.value_or(0),
                     .link_seq = 0,
                     .extra = to.has_value() ? 0 : 1,  // 1 = broadcast
                     .detail = {}};
}

TraceRecord make_deliver_record(NodeId node, Round round, NodeId from) noexcept {
  return TraceRecord{.kind = TraceEventKind::kDeliver,
                     .node = node,
                     .round = round,
                     .seq = 0,
                     .from = from,
                     .to = node,
                     .link_seq = 0,
                     .extra = 0,
                     .detail = {}};
}

TraceRecord make_link_verdict_record(const LinkEvent& event,
                                     const FaultDecision& verdict) noexcept {
  // Priority is a pure function of the verdict, so the chosen kind
  // reproduces across engines exactly like the verdict itself.
  TraceEventKind kind = TraceEventKind::kLinkClean;
  if (verdict.drop) {
    kind = TraceEventKind::kLinkDrop;
  } else if (verdict.duplicate) {
    kind = TraceEventKind::kLinkDuplicate;
  } else if (verdict.delay_rounds > 0) {
    kind = TraceEventKind::kLinkDelay;
  } else if (verdict.corrupt) {
    kind = TraceEventKind::kLinkCorrupt;
  }
  return TraceRecord{.kind = kind,
                     .node = event.to,
                     .round = event.round,
                     .seq = 0,
                     .from = event.from,
                     .to = event.to,
                     .link_seq = event.seq,
                     .extra = verdict.delay_rounds,
                     .detail = {}};
}

void TraceObserver::on_event(const ProtocolEvent& event) {
  if (recorder_ != nullptr) recorder_->record_protocol(event);
  if (next_ != nullptr) next_->on_event(event);
}

TraceRecorder::TraceRecorder(TraceEngine engine, std::size_t per_node_capacity)
    : engine_(engine), capacity_(per_node_capacity == 0 ? 1 : per_node_capacity) {}

void TraceRecorder::record(TraceRecord rec) {
  std::scoped_lock lock(mutex_);
  record_locked(std::move(rec));
}

void TraceRecorder::record_batch(std::span<TraceRecord> records) {
  if (records.empty()) return;
  std::scoped_lock lock(mutex_);
  for (TraceRecord& rec : records) record_locked(std::move(rec));
}

void TraceRecorder::record_locked(TraceRecord rec) {
  NodeRing& ring = rings_[rec.node];
  rec.seq = ring.next_seq++;
  if (ring.records.size() >= capacity_) {
    ring.records.pop_front();
    ring.evicted += 1;
  }
  ring.records.push_back(std::move(rec));
}

void TraceRecorder::record_link_verdict(const LinkEvent& event, const FaultDecision& verdict) {
  record(make_link_verdict_record(event, verdict));
}

void TraceRecorder::record_send(NodeId node, Round round, std::optional<NodeId> to) {
  record(make_send_record(node, round, to));
}

void TraceRecorder::record_deliver(NodeId node, Round round, NodeId from) {
  record(make_deliver_record(node, round, from));
}

void TraceRecorder::record_protocol(const ProtocolEvent& event) {
  record(TraceRecord{.kind = TraceEventKind::kProtocol,
                     .node = event.node,
                     .round = event.round,
                     .seq = 0,
                     .from = event.subject,
                     .to = event.node,
                     .link_seq = 0,
                     .extra = event.phase,
                     .detail = event.to_string()});
}

std::size_t TraceRecorder::size() const {
  std::scoped_lock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [id, ring] : rings_) total += ring.records.size();
  return total;
}

std::uint64_t TraceRecorder::evicted() const {
  std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [id, ring] : rings_) total += ring.evicted;
  return total;
}

void TraceRecorder::clear() {
  std::scoped_lock lock(mutex_);
  rings_.clear();
}

std::vector<TraceRecord> TraceRecorder::snapshot() const {
  std::scoped_lock lock(mutex_);
  std::vector<TraceRecord> out;
  for (const auto& [id, ring] : rings_) {
    out.insert(out.end(), ring.records.begin(), ring.records.end());
  }
  return out;
}

std::vector<TraceRecorder::RingStats> TraceRecorder::ring_stats() const {
  std::scoped_lock lock(mutex_);
  std::vector<RingStats> out;
  out.reserve(rings_.size());
  for (const auto& [id, ring] : rings_) {
    out.push_back(RingStats{id, ring.next_seq, ring.evicted});
  }
  return out;
}

void TraceRecorder::absorb_ring(NodeId node, std::vector<TraceRecord> records,
                                std::uint64_t next_seq, std::uint64_t evicted) {
  std::scoped_lock lock(mutex_);
  auto [it, inserted] = rings_.try_emplace(node);
  if (!inserted) {
    throw std::invalid_argument("absorb_ring: node " + std::to_string(node) +
                                " already has records");
  }
  NodeRing& ring = it->second;
  ring.next_seq = next_seq;
  ring.evicted = evicted;
  for (TraceRecord& rec : records) {
    rec.node = node;
    ring.records.push_back(std::move(rec));
  }
}

std::vector<TraceRecord> TraceRecorder::canonical() const {
  // Walk the rings under the lock and copy only what the canonical export
  // keeps: link-family records between distinct nodes (loopback is
  // engine-dependent and never faulted).
  std::vector<TraceRecord> out;
  {
    std::scoped_lock lock(mutex_);
    for (const auto& [id, ring] : rings_) {
      for (const TraceRecord& rec : ring.records) {
        if (is_canonical(rec.kind) && rec.from != rec.to) out.push_back(rec);
      }
    }
  }
  std::sort(out.begin(), out.end(), canonical_record_less);
  return out;
}

std::string TraceRecorder::jsonl() const {
  std::ostringstream os;
  std::scoped_lock lock(mutex_);
  std::size_t records = 0;
  std::uint64_t evicted = 0;
  for (const auto& [id, ring] : rings_) {
    records += ring.records.size();
    evicted += ring.evicted;
  }
  os << "{\"idonly_trace\":1,\"engine\":\"" << to_string(engine_)
     << "\",\"records\":" << records << ",\"evicted\":" << evicted << "}\n";
  for (const auto& [id, ring] : rings_) {
    for (const TraceRecord& rec : ring.records) os << to_jsonl_line(rec, engine_) << "\n";
  }
  return os.str();
}

std::string TraceRecorder::canonical_jsonl() const {
  std::ostringstream os;
  for (const TraceRecord& rec : canonical()) os << to_canonical_line(rec) << "\n";
  return os.str();
}

std::string TraceRecorder::chrome_trace_json() const {
  // Rounds have no wall-clock in the simulators, so the timeline is logical:
  // 1 round = 1000 fake microseconds, records spread by capture order.
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::scoped_lock lock(mutex_);
  for (const auto& [id, ring] : rings_) {
    for (const TraceRecord& rec : ring.records) {
      if (!first) os << ",";
      first = false;
      const std::int64_t ts = rec.round * 1000 + static_cast<std::int64_t>(rec.seq % 1000);
      os << "{\"name\":\"" << to_string(rec.kind) << "\",\"cat\":\""
         << (is_canonical(rec.kind) ? "link" : "engine")
         << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts << ",\"pid\":" << rec.node
         << ",\"tid\":" << rec.from << ",\"args\":{\"round\":" << rec.round
         << ",\"to\":" << rec.to << ",\"link_seq\":" << rec.link_seq << ",\"extra\":" << rec.extra;
      if (!rec.detail.empty()) os << ",\"detail\":\"" << json_escape(rec.detail) << "\"";
      os << "}}";
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace idonly
