// google-benchmark micro suite for the simulator substrate itself: the §3
// mechanisms (coalescing, atomics, launches) at kernel-op granularity, plus
// host-side substrate throughput (generators, cache model) and the fixed
// per-run and per-request costs of serving (device reset, ego extraction).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/gather_pull.hpp"
#include "serve/traffic.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"

namespace {

using namespace tlp;

// --- warp-level memory ops --------------------------------------------------

struct WarpBench {
  sim::MemorySystem sys{sim::GpuSpec::v100()};
  sim::KernelRecord rec;
  sim::DevPtr<float> data;

  WarpBench() {
    sys.rec = &rec;
    data = sys.mem.alloc<float>(1 << 22);
  }
};

void BM_CoalescedLoad(benchmark::State& state) {
  WarpBench b;
  sim::WarpCtx warp(b.sys, 0);
  sim::WVec<std::int64_t> idx{};
  std::int64_t base = 0;
  for (auto _ : state) {
    for (int l = 0; l < sim::kWarpSize; ++l)
      idx[static_cast<std::size_t>(l)] = (base + l) & ((1 << 22) - 1);
    benchmark::DoNotOptimize(warp.load_f32(b.data, idx, sim::kFullMask));
    base += sim::kWarpSize;
  }
  state.counters["sectors/req"] =
      static_cast<double>(b.rec.sectors) / static_cast<double>(b.rec.requests);
}
BENCHMARK(BM_CoalescedLoad);

void BM_ScatteredLoad(benchmark::State& state) {
  WarpBench b;
  sim::WarpCtx warp(b.sys, 0);
  Rng rng(1);
  sim::WVec<std::int64_t> idx{};
  for (auto _ : state) {
    for (int l = 0; l < sim::kWarpSize; ++l)
      idx[static_cast<std::size_t>(l)] =
          static_cast<std::int64_t>(rng.next_below(1 << 22));
    benchmark::DoNotOptimize(warp.load_f32(b.data, idx, sim::kFullMask));
  }
  state.counters["sectors/req"] =
      static_cast<double>(b.rec.sectors) / static_cast<double>(b.rec.requests);
}
BENCHMARK(BM_ScatteredLoad);

void BM_AtomicAddConflicts(benchmark::State& state) {
  WarpBench b;
  sim::WarpCtx warp(b.sys, 0);
  const auto span = state.range(0);  // lanes spread over `span` addresses
  sim::WVec<std::int64_t> idx{};
  sim::WVec<float> val{};
  for (int l = 0; l < sim::kWarpSize; ++l)
    idx[static_cast<std::size_t>(l)] = l % span;
  for (auto _ : state) {
    warp.atomic_add_f32(b.data, idx, val, sim::kFullMask);
  }
  state.counters["stall_cyc"] =
      b.rec.atomic_stall_cycles / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AtomicAddConflicts)->Arg(1)->Arg(4)->Arg(32);

// --- cache model -------------------------------------------------------------

void BM_CacheHitPath(benchmark::State& state) {
  sim::SetAssocCache cache(128 << 10, 128, 4);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr = (addr + 128) & ((64 << 10) - 1);  // working set fits
  }
  state.counters["hit_rate"] = cache.hit_rate();
}
BENCHMARK(BM_CacheHitPath);

void BM_CacheThrash(benchmark::State& state) {
  sim::SetAssocCache cache(32 << 10, 128, 4);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(rng.next_below(64ull << 20) & ~127ull));
  }
  state.counters["hit_rate"] = cache.hit_rate();
}
BENCHMARK(BM_CacheThrash);

// --- fixed per-run cost ---------------------------------------------------------

// What every GnnSystem::run pays before its first kernel: a full-V100
// reset_all (80 L1s plus the L2, profile, arena) and a 256 KB upload into
// the reset arena.
void BM_DeviceResetAll(benchmark::State& state) {
  sim::Device dev;
  Rng rng(6);
  std::vector<float> host(64 << 10);
  for (float& x : host) x = static_cast<float>(rng.next_double());
  for (auto _ : state) {
    dev.reset_all();
    const auto p = dev.upload<float>(host);
    benchmark::DoNotOptimize(p.byte_offset);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DeviceResetAll);

// --- end-to-end kernel simulation throughput ---------------------------------

void BM_GatherPullKernelSim(benchmark::State& state) {
  Rng rng(3);
  const graph::Csr g = graph::power_law(
      static_cast<graph::VertexId>(state.range(0)), state.range(0) * 8, 2.2,
      rng);
  sim::Device dev;
  const kernels::DeviceGraph dg = kernels::upload_graph(dev, g);
  const tensor::Tensor h = tensor::Tensor::random(g.num_vertices(), 32, rng);
  const auto feat = kernels::upload_features(dev, h);
  auto out = dev.alloc_zeroed<float>(dg.n * 32);
  for (auto _ : state) {
    kernels::GatherPullKernel k(dg, feat, out, 32,
                                {models::ModelKind::kGin, 0.1f});
    dev.launch(k, {});
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["sim_ms_per_launch"] =
      dev.gpu_time_ms() / static_cast<double>(dev.metrics().kernel_launches);
}
BENCHMARK(BM_GatherPullKernelSim)->Arg(1000)->Arg(10000);

// --- graph substrate ----------------------------------------------------------

void BM_PowerLawGenerator(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::power_law(static_cast<graph::VertexId>(state.range(0)),
                         state.range(0) * 10, 2.2, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_PowerLawGenerator)->Arg(1000)->Arg(20000);

// Per-request ego extraction of the serving tier: 2-hop egos capped at 512
// vertices around seeded query vertices of the PD replica.
void BM_EgoSubgraph(benchmark::State& state) {
  const graph::Csr g = graph::make_dataset(graph::dataset_by_abbr("PD"));
  Rng rng(7);
  std::int64_t vertices = 0;
  for (auto _ : state) {
    const auto q = static_cast<graph::VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    const graph::LocalGraph ego = serve::ego_subgraph(g, q, 2, 512);
    vertices += ego.csr.num_vertices();
    benchmark::DoNotOptimize(ego.csr.indices().data());
  }
  state.counters["ego_vertices"] = static_cast<double>(vertices) /
                                   static_cast<double>(state.iterations());
}
BENCHMARK(BM_EgoSubgraph);

void BM_CsrReverse(benchmark::State& state) {
  Rng rng(5);
  const graph::Csr g = graph::power_law(20000, 200000, 2.2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.reversed());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CsrReverse);

}  // namespace

BENCHMARK_MAIN();
