// Runtime-layer microbenchmarks: wire codec throughput, in-memory hub
// fan-out, and the driver's per-round overhead — the numbers that size a
// real deployment's round duration D.
#include <benchmark/benchmark.h>

#include <memory>

#include "net/codec.hpp"
#include "runtime/inmemory_transport.hpp"
#include "runtime/round_driver.hpp"

namespace idonly {
namespace {

Message sample_message() {
  Message m;
  m.sender = 0xABCDEF;
  m.kind = MsgKind::kStrongPrefer;
  m.subject = 42;
  m.instance = 3;
  m.value = Value::real(1.25);
  m.round_tag = 9;
  return m;
}

void BM_CodecEncode(benchmark::State& state) {
  const Message m = sample_message();
  std::vector<std::byte> buffer;
  for (auto _ : state) {
    buffer.clear();
    encode(m, buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.counters["frame_bytes"] = static_cast<double>(buffer.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const auto frame = encode(sample_message());
  for (auto _ : state) {
    auto decoded = decode(frame);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecode);

void BM_CodecRejectGarbage(benchmark::State& state) {
  std::vector<std::byte> garbage(32, std::byte{0xA7});
  for (auto _ : state) {
    auto decoded = decode(garbage);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecRejectGarbage);

void BM_HubFanOutViews(benchmark::State& state) {
  // Hub fan-out through drain_views(): the broadcast materialises one
  // ref-counted frame and every endpoint receives a view — the per-endpoint
  // cost is a reference bump, independent of frame size.
  const auto endpoints_count = static_cast<std::size_t>(state.range(0));
  InMemoryHub hub;
  std::vector<std::unique_ptr<InMemoryTransport>> endpoints;
  for (std::size_t i = 0; i < endpoints_count; ++i) endpoints.push_back(hub.make_endpoint());
  const auto frame = encode(sample_message());
  for (auto _ : state) {
    endpoints[0]->broadcast(frame);
    for (auto& endpoint : endpoints) benchmark::DoNotOptimize(endpoint->drain_views());
  }
  state.counters["bytes_delivered"] = static_cast<double>(hub.fanout().bytes_delivered);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(endpoints_count));
}
BENCHMARK(BM_HubFanOutViews)->Arg(64)->Arg(256);

}  // namespace
}  // namespace idonly

BENCHMARK_MAIN();
