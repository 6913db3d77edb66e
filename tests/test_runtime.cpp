// Deployment runtime: consensus and friends running over real transports
// with wall-clock round pacing — in-memory hub and UDP loopback — and the
// round clock itself, driven through a scripted transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/chaos.hpp"
#include "common/invariants.hpp"
#include "core/approx_agreement.hpp"
#include "core/consensus.hpp"
#include "net/codec.hpp"
#include "runtime/inmemory_transport.hpp"
#include "runtime/round_driver.hpp"
#include "runtime/udp_transport.hpp"
#include "wire_frames.hpp"

namespace idonly {
namespace {

using namespace std::chrono_literals;

RoundDriverConfig config_starting_soon(std::chrono::milliseconds round_duration,
                                       Round max_rounds) {
  RoundDriverConfig config;
  config.epoch = std::chrono::steady_clock::now() + 50ms;
  config.round_duration = round_duration;
  config.max_rounds = max_rounds;
  return config;
}

// ------------------------------------------------------------ round clock --
// These tests drive RoundDriver through a SCRIPTED transport — each drain
// call (one per round) returns a programmed set of frames — so the header
// checks run deterministically, without racing other drivers' timers.

/// Never finishes, never sends — pure clock observation.
class NullProcess final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo /*round*/, std::span<const Message> /*inbox*/,
                std::vector<Outgoing>& /*out*/) override {}
};

/// Never finishes, never sends; keeps (round, sender) of every delivery.
class RecordingProcess final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& /*out*/) override {
    for (const Message& msg : inbox) deliveries.emplace_back(round.global, msg.sender);
  }
  std::vector<std::pair<Round, NodeId>> deliveries;
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

TEST(RoundDriverClock, StaleFramesAreCountedLateAndTheScheduleRunsOn) {
  // Rounds 5-7 each deliver 3 stale frames (header round 1, i.e. sent far
  // in the past — synchrony violated); every other round is clean.
  std::vector<std::vector<Frame>> script(15);
  for (std::size_t drain : {4u, 5u, 6u}) {
    for (int i = 0; i < 3; ++i) script[drain].push_back(framed(1, 50 + i));
  }
  RoundDriver driver(std::make_unique<NullProcess>(1),
                     std::make_unique<ScriptedTransport>(std::move(script)),
                     config_starting_soon(10ms, 15));
  driver.run();

  EXPECT_EQ(driver.rounds_executed(), 15);
  EXPECT_EQ(driver.frames_late(), 9u);
  EXPECT_EQ(driver.frames_dropped(), 0u);
}

TEST(RoundDriverClock, FarFutureHeaderIsDroppedOnArrival) {
  // A forged header for round 1,000,000 names a round this driver never
  // runs (max_rounds 8), so the frame can never be delivered. It must be
  // dropped and counted on arrival, not buffered.
  std::vector<std::vector<Frame>> script(1);
  script[0].push_back(framed(1'000'000, 9));
  const auto config = config_starting_soon(10ms, 8);
  RoundDriver driver(std::make_unique<NullProcess>(1),
                     std::make_unique<ScriptedTransport>(std::move(script)), config);
  driver.run();
  EXPECT_EQ(driver.rounds_executed(), 8);
  EXPECT_EQ(driver.frames_dropped(), 1u);
  EXPECT_EQ(driver.frames_late(), 0u);
  // The paced schedule: round 8 ends no earlier than epoch + 8 x 10ms.
  EXPECT_GE(std::chrono::steady_clock::now() - config.epoch, 80ms);
}

TEST(RoundDriverClock, AheadHeaderIsBufferedUntilItsDeliveryRound) {
  // Round 1's drain carries a frame sent in round 10: it is buffered, not
  // late, and the process receives it in round 11 like any frame tagged 10.
  std::vector<std::vector<Frame>> script(1);
  script[0].push_back(framed(10, 9));
  auto process = std::make_unique<RecordingProcess>(1);
  const RecordingProcess& recording = *process;
  RoundDriver driver(std::move(process), std::make_unique<ScriptedTransport>(std::move(script)),
                     config_starting_soon(10ms, 12));
  driver.run();
  EXPECT_EQ(driver.rounds_executed(), 12);
  EXPECT_EQ(driver.frames_late(), 0u) << "a future frame is buffered, not late";
  EXPECT_EQ(driver.frames_dropped(), 0u);
  const std::vector<std::pair<Round, NodeId>> expected{{11, 9}};
  EXPECT_EQ(recording.deliveries, expected);
}

// --------------------------------------------------------------- in-memory --

TEST(RuntimeInMemory, HubFansOutToAllIncludingSender) {
  InMemoryHub hub;
  auto a = hub.make_endpoint();
  auto b = hub.make_endpoint();
  const Frame frame = encode(Message{.kind = MsgKind::kPresent});
  a->broadcast(frame);
  EXPECT_EQ(a->drain_views().size(), 1u) << "self-inclusive";
  const auto received = b->drain_views();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(Frame(received[0].bytes.begin(), received[0].bytes.end()), frame);
  EXPECT_TRUE(b->drain_views().empty()) << "drain empties the mailbox";
}

TEST(RuntimeInMemory, ConsensusAcrossThreads) {
  InMemoryHub hub;
  const auto config = config_starting_soon(10ms, 60);
  std::vector<std::unique_ptr<RoundDriver>> drivers;
  const std::vector<NodeId> ids{11, 22, 33, 44, 55, 66, 77};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    drivers.push_back(std::make_unique<RoundDriver>(
        std::make_unique<ConsensusProcess>(ids[i], Value::real(static_cast<double>(i % 2))),
        hub.make_endpoint(), config));
  }
  std::vector<std::thread> threads;
  threads.reserve(drivers.size());
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();

  std::optional<Value> decided;
  for (auto& driver : drivers) {
    auto& p = dynamic_cast<ConsensusProcess&>(driver->process());
    ASSERT_TRUE(p.output().has_value()) << p.id();
    if (!decided.has_value()) decided = *p.output();
    EXPECT_EQ(*p.output(), *decided);
    EXPECT_EQ(driver->frames_dropped(), 0u);
  }
  EXPECT_TRUE(*decided == Value::real(0.0) || *decided == Value::real(1.0));
}

TEST(RuntimeInMemory, MalformedFramesAreCountedAndDropped) {
  InMemoryHub hub;
  auto garbage_endpoint = hub.make_endpoint();
  auto config = config_starting_soon(10ms, 6);
  RoundDriver driver(std::make_unique<ApproxAgreementProcess>(1, 5.0, /*iterations=*/3),
                     hub.make_endpoint(), config);
  // Pre-load hostile bytes; they arrive in round 1's drain.
  garbage_endpoint->broadcast(Frame{std::byte{0xFF}, std::byte{0x00}, std::byte{0x13}});
  garbage_endpoint->broadcast(Frame{});
  driver.run();
  EXPECT_EQ(driver.frames_dropped(), 2u);
  auto& p = dynamic_cast<ApproxAgreementProcess&>(driver.process());
  EXPECT_TRUE(p.done());
  EXPECT_DOUBLE_EQ(p.value(), 5.0) << "alone on the wire, the estimate must not move";
}

// ------------------------------------------------------------------- chaos --

/// A schedule whose one phase covers rounds 1..last_round with `phase`'s
/// fault probabilities.
std::shared_ptr<ChaosSchedule> wire_chaos(ChaosPhase phase, Round last_round,
                                          std::uint64_t seed) {
  phase.first_round = 1;
  phase.last_round = last_round;
  return std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, seed);
}

/// An unpaced driver judging `chaos` on receipt; its process records what
/// it is delivered.
std::unique_ptr<RoundDriver> chaotic_driver(InMemoryHub& hub,
                                            std::shared_ptr<ChaosSchedule> chaos) {
  RoundDriverConfig config;
  config.max_rounds = 10;
  config.chaos = std::move(chaos);
  return std::make_unique<RoundDriver>(std::make_unique<RecordingProcess>(1), hub.make_endpoint(),
                                       config);
}

TEST(RuntimeChaos, DuplicatedAndDelayedFramesAreCounted) {
  // Five equal frames from node 2, each duplicated: every verdict counts,
  // and the receiver gets one copy of the equal messages.
  InMemoryHub hub;
  auto sender = hub.make_endpoint();
  auto dups = wire_chaos(ChaosPhase{.duplicate = 1.0}, 1, 7);
  auto duplicator = chaotic_driver(hub, dups);
  for (int i = 0; i < 5; ++i) sender->broadcast(framed(1, 2));
  duplicator->run_round(1);
  duplicator->run_round(2);
  EXPECT_EQ(dups->counters().total_faults().duplicates, 5u);
  const std::vector<std::pair<Round, NodeId>> once{{2, 2}};
  EXPECT_EQ(dynamic_cast<RecordingProcess&>(duplicator->process()).deliveries, once);
  EXPECT_EQ(duplicator->frames_late(), 0u);

  InMemoryHub hub2;
  auto sender2 = hub2.make_endpoint();
  auto delays = wire_chaos(ChaosPhase{.delay = DelaySpec{1.0, 1}}, 1, 8);
  auto delayer = chaotic_driver(hub2, delays);
  sender2->broadcast(framed(1, 2));
  for (Round r = 1; r <= 3; ++r) delayer->run_round(r);
  const std::vector<std::pair<Round, NodeId>> late{{3, 2}};
  EXPECT_EQ(dynamic_cast<RecordingProcess&>(delayer->process()).deliveries, late)
      << "held one round past its on-time round 2";
  EXPECT_EQ(delays->counters().total_faults().delays, 1u);
  EXPECT_EQ(delayer->frames_late(), 0u) << "a delay verdict is not a late frame";
}

TEST(RuntimeChaos, DriversDecideThroughJitterBurst) {
  // Five drivers sharing one schedule: a delay burst over rounds 2-3
  // delivers frames a round late (the runtime realisation of jitter), and
  // unanimous consensus still decides on the fixed clock. Delay verdicts are
  // filed by round header, so they never count as late frames; the
  // late-frame accounting is asserted deterministically in RoundDriverClock
  // (scripted transport). Here real threads on a loaded machine can always
  // add one straggler, so we assert the outcome, not the counters.
  ChaosPhase burst;
  burst.first_round = 2;
  burst.last_round = 3;
  burst.delay = DelaySpec{0.3, 1};
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{burst}}, 21);

  InMemoryHub hub;
  RoundDriverConfig config = config_starting_soon(15ms, 60);
  config.chaos = chaos;

  InvariantMonitor monitor;
  const std::vector<NodeId> ids{11, 22, 33, 44, 55};
  std::vector<std::unique_ptr<RoundDriver>> drivers;
  for (NodeId id : ids) {
    auto process = std::make_unique<ConsensusProcess>(id, Value::real(1.0));
    process->set_observer(&monitor);
    drivers.push_back(
        std::make_unique<RoundDriver>(std::move(process), hub.make_endpoint(), config));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(monitor.agreement_ok());
  std::size_t decided = 0;
  for (auto& driver : drivers) {
    auto& p = dynamic_cast<ConsensusProcess&>(driver->process());
    if (p.output().has_value()) {
      decided += 1;
      EXPECT_EQ(*p.output(), Value::real(1.0));
    }
  }
  EXPECT_GE(decided, ids.size() - 1) << "a transient burst must not stall the cluster";
  EXPECT_GT(chaos->counters().total_faults().total(), 0u) << "the burst actually fired";
}

TEST(RuntimeChaos, CorruptionIsAlwaysRejectedNeverMisparsed) {
  InMemoryHub hub;
  auto sender = hub.make_endpoint();
  // Every frame gets one bit flipped.
  const auto chaos = wire_chaos(ChaosPhase{.corrupt = 1.0}, 1, 3);
  auto chaotic = chaotic_driver(hub, chaos);
  const Frame frame =
      one_entry_slab(1, Message{.sender = 7, .kind = MsgKind::kInput, .value = Value::real(2.0)});
  // Send 200 frames over the chaotic link; whatever survives the bit flip
  // must either fail to decode (a dropped frame) or decode to a
  // self-consistent message (codec bijectivity) — never crash.
  for (int i = 0; i < 200; ++i) sender->broadcast(frame);
  chaotic->run_round(1);
  chaotic->run_round(2);
  EXPECT_GT(chaos->counters().total_faults().corrupts, 150u);
}

TEST(RuntimeChaos, ConsensusSurvivesModerateWireFaults) {
  // 9 nodes, unanimity-free inputs, every link dropping 5% / duplicating 5%
  // / corrupting 2% of frames. The per-round quorum margins absorb it: with
  // n = 9 all-correct, a handful of lost frames per round stays under the
  // n_v/3 slack. (This is empirical robustness, not a theorem — the paper's
  // model has reliable links; see EXPERIMENTS E6b for where it breaks.)
  // Rounds are 60 ms: under ThreadSanitizer nine drivers that judge every
  // slab entry overrun 25 ms rounds (late frames in a third of whole-binary
  // runs, at every node in each run that disagreed); the late frames are a
  // synchrony violation this test does not intend.
  InMemoryHub hub;
  auto config = config_starting_soon(60ms, 80);
  config.chaos = wire_chaos(ChaosPhase{.drop = 0.05, .duplicate = 0.05, .corrupt = 0.02}, 80, 100);
  std::vector<std::unique_ptr<RoundDriver>> drivers;
  const std::vector<NodeId> ids{11, 22, 33, 44, 55, 66, 77, 88, 99};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    drivers.push_back(std::make_unique<RoundDriver>(
        std::make_unique<ConsensusProcess>(ids[i], Value::real(static_cast<double>(i % 2))),
        hub.make_endpoint(), config));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();

  std::size_t decided = 0;
  std::optional<Value> first;
  bool agreement = true;
  // Per driver: late and dropped frame counts and the decision. Late frames
  // mean a driver overran its rounds, a synchrony violation (E6b).
  std::ostringstream drivers_seen;
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    auto& p = dynamic_cast<ConsensusProcess&>(drivers[i]->process());
    drivers_seen << "\n  node " << ids[i] << ": late=" << drivers[i]->frames_late()
                 << " dropped=" << drivers[i]->frames_dropped() << " decision="
                 << (p.output().has_value() ? p.output()->to_string() : "none");
    if (!p.output().has_value()) continue;
    decided += 1;
    if (!first.has_value()) first = *p.output();
    agreement = agreement && *p.output() == *first;
  }
  EXPECT_TRUE(agreement) << "whoever decides must agree" << drivers_seen.str();
  EXPECT_GE(decided, ids.size() - 1) << "moderate faults must not stall the cluster"
                                     << drivers_seen.str();
}

// --------------------------------------------------------------------- UDP --

TEST(RuntimeUdp, PickFreePortsDistinct) {
  const auto ports = UdpTransport::pick_free_ports(5);
  ASSERT_EQ(ports.size(), 5u);
  std::set<std::uint16_t> unique(ports.begin(), ports.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RuntimeUdp, BroadcastReachesAllEndpoints) {
  const auto ports = UdpTransport::pick_free_ports(3);
  ASSERT_EQ(ports.size(), 3u);
  std::vector<std::unique_ptr<UdpTransport>> endpoints;
  for (std::uint16_t port : ports) {
    endpoints.push_back(std::make_unique<UdpTransport>(port, ports));
  }
  const Frame frame = encode(Message{.sender = 9, .kind = MsgKind::kAck});
  endpoints[0]->broadcast(frame);
  std::this_thread::sleep_for(50ms);
  for (auto& endpoint : endpoints) {
    const auto received = endpoint->drain_views();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(Frame(received[0].bytes.begin(), received[0].bytes.end()), frame);
  }
}

TEST(RuntimeUdp, ConsensusOverLoopback) {
  const std::vector<NodeId> ids{101, 215, 333, 478, 592, 667, 721};
  const auto ports = UdpTransport::pick_free_ports(ids.size());
  ASSERT_EQ(ports.size(), ids.size());
  const auto config = config_starting_soon(25ms, 60);

  std::vector<std::unique_ptr<RoundDriver>> drivers;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    drivers.push_back(std::make_unique<RoundDriver>(
        std::make_unique<ConsensusProcess>(ids[i], Value::real(i < 4 ? 1.0 : 0.0)),
        std::make_unique<UdpTransport>(ports[i], ports), config));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();

  std::optional<Value> decided;
  for (auto& driver : drivers) {
    auto& p = dynamic_cast<ConsensusProcess&>(driver->process());
    ASSERT_TRUE(p.output().has_value()) << p.id();
    if (!decided.has_value()) decided = *p.output();
    EXPECT_EQ(*p.output(), *decided);
  }
}

TEST(RuntimeUdp, SlabLargerThanTheOldReceiveBufferArrivesIntact) {
  // 200 coalesced frames ≈ 3 KiB — well past the 2048-byte receive buffer
  // the transport used to allocate, which silently truncated (recv drops the
  // datagram's tail) and fed the driver a corrupt slab. The full datagram
  // must now arrive: every frame recovered, no truncations counted.
  const auto ports = UdpTransport::pick_free_ports(2);
  ASSERT_EQ(ports.size(), 2u);
  UdpTransport sender(ports[0], ports);
  UdpTransport receiver(ports[1], ports);

  ShardSlabWriter slab;
  slab.reset(0, /*round=*/6);
  std::vector<Message> sent;
  for (int i = 0; i < 200; ++i) {
    Message m;
    m.sender = static_cast<NodeId>(i + 1);
    m.kind = MsgKind::kEcho;
    m.subject = 9;
    m.value = Value::real(static_cast<double>(i));
    slab.add(std::nullopt, m);
    sent.push_back(m);
  }
  ASSERT_GT(slab.bytes().size(), 2048u) << "the slab must exceed the old buffer";
  sender.broadcast(slab.bytes());
  EXPECT_EQ(sender.fanout().slab_sends, 2u) << "one datagram per peer, self included";
  EXPECT_EQ(sender.fanout().send_failures, 0u);
  std::this_thread::sleep_for(50ms);

  const auto views = receiver.drain_views();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(receiver.faults().truncations, 0u);
  const auto parsed = parse_shard_slab(views[0].bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->round, 6);
  EXPECT_EQ(decode_slab(views[0].bytes), sent);
}

TEST(RuntimeUdp, OversizedDatagramIsCountedAndDropped) {
  // A receiver configured with a deliberately small buffer: recvmsg flags
  // the overflow with MSG_TRUNC and the transport must drop the mangled
  // datagram and count it — never hand the driver a silently cut frame.
  const auto ports = UdpTransport::pick_free_ports(2);
  ASSERT_EQ(ports.size(), 2u);
  UdpTransport sender(ports[0], ports);
  UdpTransport receiver(ports[1], ports, /*recv_buffer_size=*/128);

  const Frame big(300, std::byte{0x5A});
  sender.broadcast(big);
  const Frame small = encode(Message{.sender = 1, .kind = MsgKind::kAck});
  sender.broadcast(small);
  std::this_thread::sleep_for(50ms);

  const auto views = receiver.drain_views();
  ASSERT_EQ(views.size(), 1u) << "only the in-budget datagram survives";
  EXPECT_EQ(views[0].bytes.size(), small.size());
  EXPECT_EQ(receiver.faults().truncations, 1u);
}

TEST(RuntimeUdp, LegacyPerMessageFrameIsOneCountedDrop) {
  // The old per-message wire format (varint round + codec frame) is not a
  // slab, so the driver counts the whole datagram as one dropped frame and
  // the process never sees it.
  InMemoryHub hub;
  auto legacy_peer = hub.make_endpoint();
  const auto config = config_starting_soon(10ms, 6);
  RoundDriver driver(std::make_unique<ApproxAgreementProcess>(1, 5.0, /*iterations=*/3),
                     hub.make_endpoint(), config);
  Frame legacy;
  put_varint(1, legacy);
  encode(Message{.sender = 7, .kind = MsgKind::kPresent}, legacy);
  legacy_peer->broadcast(legacy);
  driver.run();
  EXPECT_EQ(driver.frames_dropped(), 1u) << "a legacy frame is one wire fault";
  auto& p = dynamic_cast<ApproxAgreementProcess&>(driver.process());
  EXPECT_DOUBLE_EQ(p.value(), 5.0) << "alone on the wire, the estimate must not move";
}

TEST(RuntimeUdp, SurvivesAHostilePeerSpammingGarbage) {
  const std::vector<NodeId> ids{11, 22, 33, 44};
  auto ports = UdpTransport::pick_free_ports(ids.size() + 1);
  ASSERT_EQ(ports.size(), ids.size() + 1);
  const std::uint16_t hostile_port = ports.back();
  const auto config = config_starting_soon(25ms, 40);

  std::vector<std::unique_ptr<RoundDriver>> drivers;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    drivers.push_back(std::make_unique<RoundDriver>(
        std::make_unique<ConsensusProcess>(ids[i], Value::real(3.0)),
        std::make_unique<UdpTransport>(ports[i], ports), config));
  }
  std::atomic<bool> stop{false};
  std::thread hostile([&] {
    UdpTransport spammer(hostile_port, ports);
    Frame junk(32);
    std::uint8_t x = 1;
    while (!stop.load()) {
      for (auto& b : junk) b = static_cast<std::byte>(x++ * 37);
      spammer.broadcast(junk);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  hostile.join();

  for (auto& driver : drivers) {
    auto& p = dynamic_cast<ConsensusProcess&>(driver->process());
    ASSERT_TRUE(p.output().has_value()) << p.id();
    EXPECT_EQ(*p.output(), Value::real(3.0)) << "unanimous input must survive the spam";
    EXPECT_GT(driver->frames_dropped(), 0u) << "the junk must have been seen and dropped";
  }
}

}  // namespace
}  // namespace idonly
