// google-benchmark microbenchmarks of the NetFlow substrate: binary trace
// serialization round-trips.
#include <benchmark/benchmark.h>

#include <sstream>

#include "netflow/frame.h"
#include "netflow/trace_io.h"
#include "util/rng.h"

namespace {

using namespace dm;

std::vector<netflow::FlowRecord> synth_records(std::size_t n) {
  util::Rng rng(123);
  std::vector<netflow::FlowRecord> records(n);
  util::Minute minute = 0;
  for (auto& r : records) {
    if (rng.chance(0.01)) ++minute;
    r.minute = minute;
    r.src_ip = netflow::IPv4(static_cast<std::uint32_t>(rng()));
    r.dst_ip = netflow::IPv4(static_cast<std::uint32_t>(rng()));
    r.src_port = static_cast<std::uint16_t>(rng.below(65536));
    r.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    r.protocol = rng.chance(0.7) ? netflow::Protocol::kTcp : netflow::Protocol::kUdp;
    r.tcp_flags = static_cast<netflow::TcpFlags>(rng.below(64));
    r.packets = static_cast<std::uint32_t>(1 + rng.below(100));
    r.bytes = r.packets * (40 + rng.below(1400));
  }
  return records;
}

void BM_TraceWrite(benchmark::State& state) {
  const auto records = synth_records(100'000);
  for (auto _ : state) {
    std::ostringstream out;
    netflow::TraceWriter writer(out, 4096);
    writer.write_all(records);
    writer.finish();
    benchmark::DoNotOptimize(out.str().size());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(records.size()));
  }
}
BENCHMARK(BM_TraceWrite)->Unit(benchmark::kMillisecond);

/// read_all over `blocks` blocks of 4096 records: 25 blocks stay below its
/// 32-block pool threshold and decode inline, 100 decode on the pool.
void BM_TraceRead(benchmark::State& state) {
  constexpr std::size_t kBlockRecords = 4096;
  const auto records =
      synth_records(static_cast<std::size_t>(state.range(0)) * kBlockRecords);
  std::ostringstream out;
  netflow::TraceWriter writer(out, kBlockRecords);
  writer.write_all(records);
  writer.finish();
  const std::string payload = out.str();
  for (auto _ : state) {
    std::istringstream in(payload);
    netflow::TraceReader reader(in);
    const auto loaded = reader.read_all();
    benchmark::DoNotOptimize(loaded.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(loaded.size()));
  }
}
BENCHMARK(BM_TraceRead)
    ->ArgName("blocks")
    ->Arg(25)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(1 << 20);
  util::Rng rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(netflow::crc32(data));
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<std::int64_t>(data.size()));
  }
}
BENCHMARK(BM_Crc32);

}  // namespace

BENCHMARK_MAIN();
