// Regression tests for runtime-shared counters and observers, written to be
// run under ThreadSanitizer (the CI tsan job includes this binary): every
// test hammers a shared object from at least two threads while a reader
// polls it, which is exactly the access pattern that used to race before
// the RoundDriver counters became atomics and EventLog grew its locked
// ConcurrentEventLog sibling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/observer.hpp"
#include "common/trace.hpp"
#include "runtime/inmemory_transport.hpp"
#include "runtime/round_driver.hpp"

namespace idonly {
namespace {

using namespace std::chrono_literals;

/// Broadcasts every round and never finishes, so the driver runs exactly
/// max_rounds with live wire traffic under the polled counters.
class ChatterProcess final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo /*round*/, std::span<const Message> /*inbox*/,
                std::vector<Outgoing>& out) override {
    broadcast(out, Message{.kind = MsgKind::kPresent});
  }
};

TEST(MetricsRace, DriverCountersAreReadableWhileTwoDriversRun) {
  InMemoryHub hub;
  RoundDriverConfig config;
  config.epoch = std::chrono::steady_clock::now() + 20ms;
  config.round_duration = 10ms;
  config.max_rounds = 20;

  std::vector<std::unique_ptr<RoundDriver>> drivers;
  for (NodeId id : {1u, 2u}) {
    drivers.push_back(std::make_unique<RoundDriver>(std::make_unique<ChatterProcess>(id),
                                                    hub.make_endpoint(), config));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });

  // Poll every counter the driver exposes mid-run. The sum is kept live so
  // the loop cannot be optimized away; the assertions are the absence of
  // TSan reports.
  std::uint64_t observed = 0;
  for (int i = 0; i < 200; ++i) {
    for (auto& driver : drivers) {
      observed += static_cast<std::uint64_t>(driver->rounds_executed());
      observed += driver->frames_dropped() + driver->frames_late();
    }
    std::this_thread::sleep_for(1ms);
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(observed, 0u);
  for (auto& driver : drivers) EXPECT_EQ(driver->rounds_executed(), 20);
}

TEST(MetricsRace, ConcurrentEventLogSurvivesWritersPlusReader) {
  ConcurrentEventLog log;
  constexpr int kPerWriter = 2000;
  auto writer = [&log](NodeId node) {
    for (int i = 0; i < kPerWriter; ++i) {
      ProtocolEvent event;
      event.type = i % 2 == 0 ? ProtocolEvent::Type::kAccepted : ProtocolEvent::Type::kDecided;
      event.node = node;
      event.round = i;
      log.on_event(event);
    }
  };
  std::atomic<bool> stop{false};
  std::thread reader([&log, &stop] {
    std::size_t seen = 0;
    while (!stop.load()) {
      seen += log.events().size();  // snapshot copy; must never tear
      seen += log.of_type(ProtocolEvent::Type::kDecided).size();
    }
    (void)seen;
  });
  std::thread a(writer, 1);
  std::thread b(writer, 2);
  a.join();
  b.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(log.size(), static_cast<std::size_t>(2 * kPerWriter));
  EXPECT_EQ(log.of_type(ProtocolEvent::Type::kDecided).size(),
            static_cast<std::size_t>(kPerWriter));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(MetricsRace, TraceRecorderSurvivesConcurrentRecordingAndExport) {
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kRuntime, /*capacity=*/256);
  constexpr int kPerWriter = 3000;
  auto writer = [&recorder](NodeId node) {
    for (int i = 0; i < kPerWriter; ++i) {
      recorder->record_send(node, i, std::nullopt);
      // Also hit the SHARED ring: both writers interleave on node 99.
      recorder->record_deliver(99, i, node);
    }
  };
  std::atomic<bool> stop{false};
  std::thread reader([&recorder, &stop] {
    std::size_t seen = 0;
    while (!stop.load()) {
      seen += recorder->size() + recorder->snapshot().size() + recorder->jsonl().size();
    }
    (void)seen;
  });
  std::thread a(writer, 1);
  std::thread b(writer, 2);
  a.join();
  b.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(recorder->size(), 3u * 256u) << "three full rings";
  EXPECT_EQ(recorder->evicted(), static_cast<std::uint64_t>(4 * kPerWriter) - 3u * 256u);
  const auto records = recorder->snapshot();
  // Per-node capture sequences must be dense even under contention: node
  // 99's surviving records are the LAST 256 stamped there.
  std::uint64_t max_seq = 0;
  for (const TraceRecord& rec : records) {
    if (rec.node == 99) max_seq = std::max(max_seq, rec.seq);
  }
  EXPECT_EQ(max_seq, static_cast<std::uint64_t>(2 * kPerWriter) - 1);
}

}  // namespace
}  // namespace idonly
