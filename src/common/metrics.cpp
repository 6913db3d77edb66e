#include "common/metrics.hpp"

#include <numeric>
#include <sstream>
#include <utility>

namespace idonly {

std::uint64_t MessageCounters::total_sent() const noexcept {
  return std::accumulate(sent.begin(), sent.end(), std::uint64_t{0});
}

std::uint64_t MessageCounters::total_delivered() const noexcept {
  return std::accumulate(delivered.begin(), delivered.end(), std::uint64_t{0});
}

std::uint64_t FaultCounters::total() const noexcept {
  return drops + duplicates + delays + corrupts + partition_drops + crash_drops + truncations;
}

FaultCounters& FaultCounters::operator+=(const FaultCounters& other) noexcept {
  drops += other.drops;
  duplicates += other.duplicates;
  delays += other.delays;
  corrupts += other.corrupts;
  partition_drops += other.partition_drops;
  crash_drops += other.crash_drops;
  truncations += other.truncations;
  return *this;
}

FaultCounters ChaosCounters::total_faults() const noexcept {
  FaultCounters sum;
  for (const FaultCounters& phase : per_phase) sum += phase;
  return sum;
}

std::string ChaosCounters::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < per_phase.size(); ++i) {
    const FaultCounters& p = per_phase[i];
    if (i > 0) os << ' ';
    os << "phase" << i << "[drop=" << p.drops << " dup=" << p.duplicates
       << " delay=" << p.delays << " corrupt=" << p.corrupts
       << " partition=" << p.partition_drops << " crash=" << p.crash_drops
       << " trunc=" << p.truncations << ']';
  }
  return os.str();
}

void Metrics::reset() {
  messages = MessageCounters{};
  fanout.reset();
  overlap.reset();
  rounds_executed = 0;
  done_round.clear();
}

std::string Metrics::summary() const {
  std::ostringstream os;
  os << "rounds=" << rounds_executed << " sent=" << messages.total_sent()
     << " delivered=" << messages.total_delivered() << " dedup_hits=" << fanout.dedup_hits
     << " bytes=" << fanout.bytes_delivered << " done_nodes=" << done_round.size();
  return os.str();
}

namespace {

void expose(std::ostringstream& os, const char* name, const char* type, std::uint64_t value) {
  os << "# TYPE " << name << " " << type << "\n" << name << " " << value << "\n";
}

}  // namespace

std::string CampaignCounters::summary() const {
  std::ostringstream os;
  os << "scenarios=" << scenarios << " passed=" << passed << " violations=" << violations
     << " expectation_failures=" << expectation_failures << " timeouts=" << timeouts
     << " boundary_probes=" << boundary_probes << " boundary_violations=" << boundary_violations
     << " minimized=" << minimized << " generator_errors=" << generator_errors;
  return os.str();
}

std::string prometheus_exposition(const CampaignCounters& campaign) {
  std::ostringstream os;
  expose(os, "idonly_fuzz_scenarios_total", "counter", campaign.scenarios);
  expose(os, "idonly_fuzz_passed_total", "counter", campaign.passed);
  expose(os, "idonly_fuzz_violations_total", "counter", campaign.violations);
  expose(os, "idonly_fuzz_expectation_failures_total", "counter", campaign.expectation_failures);
  expose(os, "idonly_fuzz_timeouts_total", "counter", campaign.timeouts);
  expose(os, "idonly_fuzz_boundary_probes_total", "counter", campaign.boundary_probes);
  expose(os, "idonly_fuzz_boundary_violations_total", "counter", campaign.boundary_violations);
  expose(os, "idonly_fuzz_minimized_total", "counter", campaign.minimized);
  expose(os, "idonly_fuzz_generator_errors_total", "counter", campaign.generator_errors);
  return os.str();
}

std::string prometheus_exposition(const Metrics& metrics, const ChaosCounters* chaos,
                                  const FaultCounters* wire_faults) {
  std::ostringstream os;
  expose(os, "idonly_rounds_executed", "counter",
         static_cast<std::uint64_t>(metrics.rounds_executed < 0 ? 0 : metrics.rounds_executed));

  os << "# TYPE idonly_messages_sent_total counter\n";
  for (std::size_t k = 0; k < MessageCounters::kKinds; ++k) {
    if (metrics.messages.sent[k] == 0) continue;
    os << "idonly_messages_sent_total{kind=\"" << k << "\"} " << metrics.messages.sent[k] << "\n";
  }
  os << "# TYPE idonly_messages_delivered_total counter\n";
  for (std::size_t k = 0; k < MessageCounters::kKinds; ++k) {
    if (metrics.messages.delivered[k] == 0) continue;
    os << "idonly_messages_delivered_total{kind=\"" << k << "\"} " << metrics.messages.delivered[k]
       << "\n";
  }

  expose(os, "idonly_fanout_deliveries_total", "counter", metrics.fanout.deliveries);
  expose(os, "idonly_fanout_unique_payloads_total", "counter", metrics.fanout.unique_payloads);
  expose(os, "idonly_fanout_dedup_hits_total", "counter", metrics.fanout.dedup_hits);
  expose(os, "idonly_fanout_bytes_delivered_total", "counter", metrics.fanout.bytes_delivered);
  expose(os, "idonly_fanout_slab_sends_total", "counter", metrics.fanout.slab_sends);
  expose(os, "idonly_fanout_send_failures_total", "counter", metrics.fanout.send_failures);
  expose(os, "idonly_overlap_rounds_total", "counter", metrics.overlap.rounds_overlapped);
  expose(os, "idonly_overlap_recv_stall_ns_total", "counter", metrics.overlap.recv_stall_ns);
  expose(os, "idonly_overlap_slabs_direct_total", "counter", metrics.overlap.slabs_direct);
  expose(os, "idonly_done_nodes", "gauge", metrics.done_round.size());

  if (chaos != nullptr) {
    os << "# TYPE idonly_chaos_faults_total counter\n";
    for (std::size_t i = 0; i < chaos->per_phase.size(); ++i) {
      const FaultCounters& p = chaos->per_phase[i];
      const std::pair<const char*, std::uint64_t> faults[] = {
          {"drop", p.drops},           {"dup", p.duplicates},
          {"delay", p.delays},         {"corrupt", p.corrupts},
          {"partition", p.partition_drops}, {"crash", p.crash_drops},
          {"trunc", p.truncations}};
      for (const auto& [fault, count] : faults) {
        if (count == 0) continue;
        os << "idonly_chaos_faults_total{phase=\"" << i << "\",fault=\"" << fault << "\"} "
           << count << "\n";
      }
    }
  }
  if (wire_faults != nullptr) {
    // Transport-observed faults (not chaos-injected): every sample is
    // emitted — including zeros — because "no wire errors" is itself the
    // signal a soak dashboard alerts on.
    os << "# TYPE idonly_wire_faults_total counter\n";
    const std::pair<const char*, std::uint64_t> faults[] = {
        {"trunc", wire_faults->truncations}, {"drop", wire_faults->drops},
        {"dup", wire_faults->duplicates},    {"delay", wire_faults->delays},
        {"corrupt", wire_faults->corrupts}};
    for (const auto& [fault, count] : faults) {
      os << "idonly_wire_faults_total{fault=\"" << fault << "\"} " << count << "\n";
    }
  }
  return os.str();
}

}  // namespace idonly
