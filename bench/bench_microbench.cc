// google-benchmark microbenchmarks over two primitives nothing else times:
// the Internet checksum and message header push/pop.  perfbench times the
// cache simulator's replay, lowering and a stack roundtrip per layer.
#include <benchmark/benchmark.h>

#include <array>

#include "protocols/wire_format.h"
#include "xkernel/message.h"

using namespace l96;

namespace {

void BM_InetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::inet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InetChecksum)->Arg(20)->Arg(64)->Arg(1460);

void BM_MessagePushPop(benchmark::State& state) {
  xk::SimAlloc arena;
  xk::Message m(arena, 256, 64);
  std::array<std::uint8_t, 20> hdr{};
  for (auto _ : state) {
    m.push(hdr);
    m.pop(hdr);
  }
}
BENCHMARK(BM_MessagePushPop);

}  // namespace

BENCHMARK_MAIN();
