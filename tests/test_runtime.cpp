// Deployment runtime: consensus and friends running over real transports
// with wall-clock round pacing — in-memory hub and UDP loopback.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/chaos.hpp"
#include "common/invariants.hpp"
#include "common/rng.hpp"
#include "common/siphash.hpp"
#include "core/approx_agreement.hpp"
#include "core/consensus.hpp"
#include "net/codec.hpp"
#include "runtime/auth_transport.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/faulty_transport.hpp"
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

// --------------------------------------------------------------- in-memory --

TEST(RuntimeInMemory, HubFansOutToAllIncludingSender) {
  InMemoryHub hub;
  auto a = hub.make_endpoint();
  auto b = hub.make_endpoint();
  const Frame frame = encode(Message{.kind = MsgKind::kPresent});
  a->broadcast(frame);
  EXPECT_EQ(a->drain().size(), 1u) << "self-inclusive";
  auto received = b->drain();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], frame);
  EXPECT_TRUE(b->drain().empty()) << "drain empties the mailbox";
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

TEST(RuntimeChaos, FaultModelProbabilitiesAreValidatedAtConstruction) {
  InMemoryHub hub;
  FaultModel bad;
  bad.drop = 1.5;
  EXPECT_THROW(FaultyTransport(hub.make_endpoint(), bad, Rng(1)), std::invalid_argument);
  bad = FaultModel{};
  bad.delay = -0.25;
  EXPECT_THROW(FaultyTransport(hub.make_endpoint(), bad, Rng(1)), std::invalid_argument);
  EXPECT_NO_THROW(FaultyTransport(hub.make_endpoint(), FaultModel{}, Rng(1)));
}

TEST(RuntimeChaos, DuplicatedAndDelayedFramesAreCounted) {
  InMemoryHub hub;
  auto observer = hub.make_endpoint();
  FaultModel model;
  model.duplicate = 1.0;
  FaultyTransport duplicator(hub.make_endpoint(), model, Rng(7));
  const Frame frame = encode(Message{.kind = MsgKind::kPresent});
  for (int i = 0; i < 5; ++i) duplicator.broadcast(frame);
  EXPECT_EQ(duplicator.frames_duplicated(), 5u);
  EXPECT_EQ(observer->drain().size(), 10u) << "every frame went out twice";

  FaultModel delaying;
  delaying.delay = 1.0;
  FaultyTransport delayer(hub.make_endpoint(), delaying, Rng(8));
  observer->broadcast(frame);
  EXPECT_TRUE(delayer.drain_views().empty()) << "held for one drain cycle";
  EXPECT_EQ(delayer.frames_delayed(), 1u);
}

/// Inner transport whose drain hands out views into a buffer it REUSES on
/// the next fill — the documented lifetime contract (bytes valid only until
/// the next drain) that delayed frames must survive.
class ReusedBufferTransport final : public Transport {
 public:
  void broadcast(std::span<const std::byte> frame) override {
    buffer_.assign(frame.begin(), frame.end());
    armed_ = true;
  }
  [[nodiscard]] std::vector<FrameView> drain_views() override {
    if (!armed_) return {};
    armed_ = false;
    return {FrameView{nullptr, std::span<const std::byte>(buffer_.data(), buffer_.size())}};
  }

 private:
  Frame buffer_;
  bool armed_ = false;
};

TEST(RuntimeChaos, DelayedFrameSurvivesInnerBufferReuse) {
  // Regression: FaultyTransport used to hold the raw view across drains; an
  // inner transport that reuses its receive buffer would then rewrite the
  // held frame's bytes. Held views must be materialised into owned frames.
  FaultModel model;
  model.delay = 1.0;
  auto inner = std::make_unique<ReusedBufferTransport>();
  ReusedBufferTransport* wire = inner.get();
  FaultyTransport chaotic(std::move(inner), model, Rng(9));

  const Frame original = encode(Message{.sender = 3, .kind = MsgKind::kAck});
  wire->broadcast(original);
  ASSERT_TRUE(chaotic.drain_views().empty()) << "first drain holds the frame";

  // The wire now reuses its buffer for a different, larger frame.
  Message overwrite;
  overwrite.sender = 9;
  overwrite.kind = MsgKind::kInput;
  overwrite.value = Value::real(123.0);
  wire->broadcast(encode(overwrite));

  // Only the held frame is released this drain (delay=1.0 holds the new
  // arrival too); its bytes must be the ORIGINAL ones, not the overwrite.
  const auto released = chaotic.drain_views();
  ASSERT_EQ(released.size(), 1u);
  ASSERT_EQ(released[0].bytes.size(), original.size());
  EXPECT_TRUE(std::equal(released[0].bytes.begin(), released[0].bytes.end(), original.begin(),
                         original.end()));
}

TEST(RuntimeChaos, AdaptiveDriversHealAfterJitterBurst) {
  // Five adaptive drivers behind ChaosTransports sharing one schedule: a
  // delay burst over rounds 2-3 makes frames arrive a round late (the
  // runtime realisation of jitter), late counters spike, the clocks back
  // off, and unanimous consensus still decides. The exact backoff/shrink
  // walk is asserted deterministically in test_watchdog (scripted clock);
  // here real threads on a loaded machine can always add one straggler, so
  // we assert the outcome, not the final-round counter.
  ChaosPhase burst;
  burst.first_round = 2;
  burst.last_round = 3;
  burst.delay = DelaySpec{0.3, 1};
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{burst}}, 21);

  InMemoryHub hub;
  RoundDriverConfig config = config_starting_soon(15ms, 60);
  config.adaptive = true;
  config.backoff_late_threshold = 1;
  config.max_round_duration = 60ms;

  InvariantMonitor monitor;
  const std::vector<NodeId> ids{11, 22, 33, 44, 55};
  std::vector<std::unique_ptr<RoundDriver>> drivers;
  for (NodeId id : ids) {
    auto process = std::make_unique<ConsensusProcess>(id, Value::real(1.0));
    process->set_observer(&monitor);
    drivers.push_back(std::make_unique<RoundDriver>(
        std::move(process),
        std::make_unique<ChaosTransport>(hub.make_endpoint(), chaos, id), config));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(monitor.agreement_ok());
  std::size_t decided = 0;
  std::uint64_t total_late = 0;
  for (auto& driver : drivers) {
    auto& p = dynamic_cast<ConsensusProcess&>(driver->process());
    if (p.output().has_value()) {
      decided += 1;
      EXPECT_EQ(*p.output(), Value::real(1.0));
    }
    total_late += driver->frames_late();
  }
  EXPECT_GE(decided, ids.size() - 1) << "a transient burst must not stall the cluster";
  EXPECT_GT(chaos->counters().total_faults().total(), 0u) << "the burst actually fired";
  (void)total_late;  // delay faults usually (not always) arrive late; informational
}

TEST(RuntimeChaos, CorruptionIsAlwaysRejectedNeverMisparsed) {
  InMemoryHub hub;
  auto inner = hub.make_endpoint();
  FaultModel model;
  model.corrupt = 1.0;  // every frame gets one bit flipped
  FaultyTransport chaotic(hub.make_endpoint(), model, Rng(3));
  const Frame frame =
      one_entry_slab(1, Message{.sender = 7, .kind = MsgKind::kInput, .value = Value::real(2.0)});
  // Broadcast through the chaotic endpoint 200 times; whatever survives the
  // bit flip must either fail to parse or parse to a self-consistent frame
  // (codec bijectivity) — never crash.
  for (int i = 0; i < 200; ++i) chaotic.broadcast(frame);
  EXPECT_GT(chaotic.frames_corrupted(), 150u);
  for (const Frame& received : inner->drain()) (void)decode_slab(received);
}

TEST(RuntimeChaos, ConsensusSurvivesModerateWireFaults) {
  // 9 nodes, unanimity-free inputs, every link dropping 5% / duplicating 5%
  // / corrupting 2% of frames. The per-round quorum margins absorb it: with
  // n = 9 all-correct, a handful of lost frames per round stays under the
  // n_v/3 slack. (This is empirical robustness, not a theorem — the paper's
  // model has reliable links; see EXPERIMENTS E6b for where it breaks.)
  InMemoryHub hub;
  const auto config = config_starting_soon(10ms, 80);
  std::vector<std::unique_ptr<RoundDriver>> drivers;
  const std::vector<NodeId> ids{11, 22, 33, 44, 55, 66, 77, 88, 99};
  FaultModel model;
  model.drop = 0.05;
  model.duplicate = 0.05;
  model.corrupt = 0.02;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    drivers.push_back(std::make_unique<RoundDriver>(
        std::make_unique<ConsensusProcess>(ids[i], Value::real(static_cast<double>(i % 2))),
        std::make_unique<FaultyTransport>(hub.make_endpoint(), model, Rng(100 + i)), config));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();

  std::size_t decided = 0;
  std::optional<Value> first;
  bool agreement = true;
  for (auto& driver : drivers) {
    auto& p = dynamic_cast<ConsensusProcess&>(driver->process());
    if (!p.output().has_value()) continue;
    decided += 1;
    if (!first.has_value()) first = *p.output();
    agreement = agreement && *p.output() == *first;
  }
  EXPECT_TRUE(agreement) << "whoever decides must agree";
  EXPECT_GE(decided, ids.size() - 1) << "moderate faults must not stall the cluster";
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
    auto received = endpoint->drain();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], frame);
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

TEST(RuntimeUdp, AuthTransportDropsSpamBeforeTheDriver) {
  // Same hostile-spammer setup, but the cluster shares a group key: the
  // junk dies in the AuthTransport (frames_rejected), and the driver's own
  // malformed-frame counter stays at zero.
  const std::vector<NodeId> ids{11, 22, 33, 44};
  auto ports = UdpTransport::pick_free_ports(ids.size() + 1);
  ASSERT_EQ(ports.size(), ids.size() + 1);
  const std::uint16_t hostile_port = ports.back();
  const auto config = config_starting_soon(25ms, 40);
  SipHashKey key{};
  for (std::uint8_t i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(0x42 + i);

  std::vector<std::unique_ptr<RoundDriver>> drivers;
  std::vector<AuthTransport*> transports;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto transport = std::make_unique<AuthTransport>(
        std::make_unique<UdpTransport>(ports[i], ports), key);
    transports.push_back(transport.get());
    drivers.push_back(std::make_unique<RoundDriver>(
        std::make_unique<ConsensusProcess>(ids[i], Value::real(1.0)), std::move(transport),
        config));
  }
  std::atomic<bool> stop{false};
  std::thread hostile([&] {
    UdpTransport spammer(hostile_port, ports);  // no key
    Frame junk(24, std::byte{0x55});
    while (!stop.load()) {
      spammer.broadcast(junk);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  hostile.join();

  for (std::size_t i = 0; i < drivers.size(); ++i) {
    auto& p = dynamic_cast<ConsensusProcess&>(drivers[i]->process());
    ASSERT_TRUE(p.output().has_value()) << p.id();
    EXPECT_EQ(*p.output(), Value::real(1.0));
    EXPECT_EQ(drivers[i]->frames_dropped(), 0u)
        << "junk must never reach the driver's decoder";
    EXPECT_GT(transports[i]->frames_rejected(), 0u);
  }
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
