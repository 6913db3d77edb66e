// Self-healing round clock and watchdog supervision.
//
// The adaptive-clock tests drive RoundDriver through a SCRIPTED transport —
// each drain call (one per round) returns a programmed set of frames — so
// the backoff/shrink/resync state machine is exercised deterministically,
// without racing real timers. The watchdog tests wedge a driver for real
// (an epoch far in the future) and let DriverPool recycle it.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/inmemory_transport.hpp"
#include "runtime/round_driver.hpp"
#include "runtime/watchdog.hpp"
#include "wire_frames.hpp"

namespace idonly {
namespace {

using namespace std::chrono_literals;

/// Never finishes, never sends — pure clock observation.
class NullProcess final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo /*round*/, std::span<const Message> /*inbox*/,
                std::vector<Outgoing>& /*out*/) override {}
};

/// drain_views() call k returns the k-th programmed batch (empty past the
/// end); broadcasts are discarded. One drain per round makes the script a
/// per-round delivery plan.
class ScriptedTransport final : public Transport {
 public:
  explicit ScriptedTransport(std::vector<std::vector<Frame>> per_drain)
      : per_drain_(std::move(per_drain)) {}
  void broadcast(std::span<const std::byte> /*frame*/) override {}
  [[nodiscard]] std::vector<FrameView> drain_views() override {
    std::vector<FrameView> out;
    if (next_ < per_drain_.size()) {
      for (const Frame& frame : per_drain_[next_]) {
        out.push_back(make_frame_view(make_frame_ref(frame)));
      }
    }
    next_ += 1;
    return out;
  }

 private:
  std::vector<std::vector<Frame>> per_drain_;
  std::size_t next_ = 0;
};

RoundDriverConfig adaptive_config(std::chrono::milliseconds base,
                                  std::chrono::milliseconds max, Round max_rounds) {
  RoundDriverConfig config;
  config.epoch = std::chrono::steady_clock::now() + 20ms;
  config.round_duration = base;
  config.max_rounds = max_rounds;
  config.adaptive = true;
  config.backoff_late_threshold = 3;
  config.backoff_factor = 2.0;
  config.max_round_duration = max;
  config.shrink_after_clean_rounds = 2;
  return config;
}

// ------------------------------------------------------- adaptive clock ----

TEST(AdaptiveClock, BacksOffUnderLateBurstThenShrinksBackToBase) {
  // Rounds 1-4 clean; rounds 5-7 each deliver 3 stale frames (header round
  // 1, i.e. sent far in the past — synchrony violated); rounds 8+ clean.
  // Expected duration walk with base 10 / factor 2 / cap 80:
  //   r5: 10→20  r6: 20→40  r7: 40→80  (3 backoffs)
  //   clean pairs (8,9) (10,11) (12,13): 80→40→20→10  (3 shrinks)
  std::vector<std::vector<Frame>> script(15);
  for (std::size_t drain : {4u, 5u, 6u}) {
    for (int i = 0; i < 3; ++i) script[drain].push_back(framed(1, 50 + i));
  }
  RoundDriver driver(std::make_unique<NullProcess>(1),
                     std::make_unique<ScriptedTransport>(std::move(script)),
                     adaptive_config(10ms, 80ms, 15));
  driver.run();

  EXPECT_EQ(driver.rounds_executed(), 15);
  EXPECT_EQ(driver.frames_late(), 9u);
  EXPECT_EQ(driver.backoffs(), 3u);
  EXPECT_EQ(driver.shrinks(), 3u);
  EXPECT_EQ(driver.current_round_duration(), 10ms) << "fully healed back to base";
  EXPECT_EQ(driver.frames_late_last_round(), 0u) << "clean after the storm";
  EXPECT_EQ(driver.heartbeat(), 15u) << "one tick per executed round";
}

TEST(AdaptiveClock, BackoffIsBoundedByMaxRoundDuration) {
  // Every round delivers a late burst; with cap 40 the duration walks
  // 10→20→40 and then STAYS at 40 (growth attempts at the cap don't count).
  std::vector<std::vector<Frame>> script(8);
  for (std::size_t drain = 4; drain < 8; ++drain) {
    for (int i = 0; i < 3; ++i) script[drain].push_back(framed(1, 60 + i));
  }
  RoundDriver driver(std::make_unique<NullProcess>(1),
                     std::make_unique<ScriptedTransport>(std::move(script)),
                     adaptive_config(10ms, 40ms, 8));
  driver.run();
  EXPECT_EQ(driver.backoffs(), 2u) << "10→20→40, then pinned at the cap";
  EXPECT_EQ(driver.current_round_duration(), 40ms);
}

TEST(AdaptiveClock, ResyncsWhenPeersAreAhead) {
  // Round 1's drain carries a header from round 10: peers are far ahead, so
  // the driver must skip its sleep while the buffered round is strictly
  // ahead (rounds 1-9), then consume the buffered inbox at round 11.
  std::vector<std::vector<Frame>> script(1);
  script[0].push_back(framed(10, 9));
  RoundDriver driver(std::make_unique<NullProcess>(1),
                     std::make_unique<ScriptedTransport>(std::move(script)),
                     adaptive_config(10ms, 80ms, 12));
  const auto start = std::chrono::steady_clock::now();
  driver.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(driver.resyncs(), 9u);
  EXPECT_EQ(driver.frames_late(), 0u) << "a future frame is buffered, not late";
  // 10 of 12 sleeps skipped: the run must finish well under the nominal
  // 12 x 10ms schedule would with sleeps (plus the 20ms pre-epoch wait).
  EXPECT_LT(elapsed, 2s) << "sanity: the run terminated promptly";
}

TEST(AdaptiveClock, FarFutureHeaderIsDroppedNotResyncedOn) {
  // A forged header for round 1,000,000 names a round this driver never
  // runs (max_rounds 8), so the frame can never be delivered. It must be
  // dropped and counted on arrival — buffering it would skip every sleep as
  // if peers were ahead and race through all 8 rounds at once.
  std::vector<std::vector<Frame>> script(1);
  script[0].push_back(framed(1'000'000, 9));
  const auto config = adaptive_config(10ms, 80ms, 8);
  RoundDriver driver(std::make_unique<NullProcess>(1),
                     std::make_unique<ScriptedTransport>(std::move(script)), config);
  driver.run();
  EXPECT_EQ(driver.rounds_executed(), 8);
  EXPECT_EQ(driver.resyncs(), 0u);
  EXPECT_EQ(driver.frames_dropped(), 1u);
  EXPECT_EQ(driver.frames_late(), 0u);
  // The paced schedule: round 8 ends no earlier than epoch + 8 x 10ms.
  EXPECT_GE(std::chrono::steady_clock::now() - config.epoch, 80ms);
}

TEST(AdaptiveClock, NoLateFramesMeansFixedSchedule) {
  RoundDriver driver(std::make_unique<NullProcess>(1),
                     std::make_unique<ScriptedTransport>(std::vector<std::vector<Frame>>{}),
                     adaptive_config(5ms, 40ms, 6));
  driver.run();
  EXPECT_EQ(driver.backoffs(), 0u);
  EXPECT_EQ(driver.shrinks(), 0u);
  EXPECT_EQ(driver.resyncs(), 0u);
  EXPECT_EQ(driver.current_round_duration(), 5ms);
}

// ------------------------------------------------------------- watchdog ----

RoundDriverConfig wedged_config() {
  RoundDriverConfig config;
  config.epoch = std::chrono::steady_clock::now() + 10min;  // never reached
  config.round_duration = 5ms;
  config.max_rounds = 3;
  return config;
}

RoundDriverConfig healthy_config(Round max_rounds) {
  RoundDriverConfig config;
  config.epoch = std::chrono::steady_clock::now() + 10ms;
  config.round_duration = 5ms;
  config.max_rounds = max_rounds;
  return config;
}

TEST(Watchdog, RestartsWedgedDriverWhichThenCompletes) {
  WatchdogConfig watchdog;
  watchdog.poll_interval = 5ms;
  watchdog.stall_timeout = 60ms;
  watchdog.max_restarts_per_slot = 1;
  DriverPool pool(watchdog);

  InMemoryHub hub;
  auto attempts = std::make_shared<int>(0);
  pool.add([&hub, attempts]() {
    const int attempt = (*attempts)++;
    // First incarnation sleeps toward a far-future epoch (heartbeat stays
    // 0 — wedged); the relaunch gets a sane clock and finishes.
    return std::make_unique<RoundDriver>(std::make_unique<NullProcess>(1),
                                         hub.make_endpoint(),
                                         attempt == 0 ? wedged_config() : healthy_config(3));
  });
  pool.run();

  EXPECT_EQ(pool.restarts(), 1u);
  EXPECT_EQ(*attempts, 2);
  EXPECT_EQ(pool.driver(0).rounds_executed(), 3);
  EXPECT_EQ(pool.driver(0).heartbeat(), 3u);
}

TEST(Watchdog, RetiresSlotAfterRestartBudgetIsSpent) {
  // Every incarnation wedges. With a budget of 1 the pool must restart
  // once, give up, stop the second incarnation, and STILL terminate.
  WatchdogConfig watchdog;
  watchdog.poll_interval = 5ms;
  watchdog.stall_timeout = 40ms;
  watchdog.max_restarts_per_slot = 1;
  DriverPool pool(watchdog);
  InMemoryHub hub;
  pool.add([&hub]() {
    return std::make_unique<RoundDriver>(std::make_unique<NullProcess>(1),
                                         hub.make_endpoint(), wedged_config());
  });
  pool.run();
  EXPECT_EQ(pool.restarts(), 1u);
  EXPECT_EQ(pool.driver(0).rounds_executed(), 0) << "retired before its epoch ever arrived";
}

TEST(Watchdog, LeavesHealthyDriversAlone) {
  WatchdogConfig watchdog;
  watchdog.poll_interval = 5ms;
  watchdog.stall_timeout = 500ms;
  DriverPool pool(watchdog);
  InMemoryHub hub;
  for (NodeId id = 1; id <= 3; ++id) {
    pool.add([&hub, id]() {
      return std::make_unique<RoundDriver>(std::make_unique<NullProcess>(id),
                                           hub.make_endpoint(), healthy_config(4));
    });
  }
  pool.run();
  EXPECT_EQ(pool.restarts(), 0u);
  ASSERT_EQ(pool.size(), 3u);
  for (std::size_t slot = 0; slot < pool.size(); ++slot) {
    EXPECT_EQ(pool.driver(slot).rounds_executed(), 4);
  }
}

}  // namespace
}  // namespace idonly
