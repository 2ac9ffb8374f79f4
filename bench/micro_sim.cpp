// google-benchmark micro suite for the simulator substrate itself: the §3
// mechanisms (coalescing, atomics, launches) at kernel-op granularity, plus
// host-side substrate throughput (generators, CSR build, cache model) and the fixed
// per-run and per-request costs of serving (device reset, ego extraction)
// and of a sweep job (a fresh device's arena).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/builder.hpp"
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

// The broadcast shape of indptr bounds and neighbor ids: one lane, walking
// a buffer element by element, so most probes hit L1.
void BM_ScalarLoad(benchmark::State& state) {
  WarpBench b;
  sim::WarpCtx warp(b.sys, 0);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(warp.load_scalar_f32(b.data, i));
    i = (i + 1) & ((1 << 22) - 1);
  }
  state.counters["sectors/req"] =
      static_cast<double>(b.rec.sectors) / static_cast<double>(b.rec.requests);
}
BENCHMARK(BM_ScalarLoad);

// A warp reading `range(1)` consecutive floats through load_f32_seq,
// starting `range(0)` floats into a line. 0/32 is a feature-row chunk on one
// aligned line, 16/32 straddles two, and 0/7 is the partial last batch of an
// edge-index walk.
void BM_SeqLoad(benchmark::State& state) {
  WarpBench b;
  sim::WarpCtx warp(b.sys, 0);
  const auto lanes = static_cast<int>(state.range(1));
  std::int64_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        warp.load_f32_seq(b.data, row + state.range(0), lanes));
    row = (row + sim::kWarpSize) & ((1 << 22) - 64);
  }
  state.counters["sectors/req"] =
      static_cast<double>(b.rec.sectors) / static_cast<double>(b.rec.requests);
}
BENCHMARK(BM_SeqLoad)->Args({0, 32})->Args({16, 32})->Args({0, 7});

// FeatGraph's neighbour gather: 4 sub-warps of 8 lanes, each reading an
// 8-float chunk of a random 128 B feature row, on the scaled V100 the
// sweep runs. /0 issues it through load_f32 with those lanes, /1 through
// the run op: the same request, priced and moved identically.
void BM_SubwarpGather(benchmark::State& state) {
  sim::MemorySystem sys(sim::GpuSpec::v100_scaled(20));
  sim::KernelRecord rec;
  sys.rec = &rec;
  constexpr std::int64_t kRows = 1 << 16;
  const auto data = sys.mem.alloc<float>(kRows * sim::kWarpSize);
  sim::WarpCtx warp(sys, 0);
  Rng rng(10);
  std::vector<std::int64_t> rows(4096);
  for (std::int64_t& r : rows)
    r = static_cast<std::int64_t>(rng.next_below(kRows)) * sim::kWarpSize;
  const bool use_runs = state.range(0) == 1;
  std::size_t next = 0;
  std::int64_t chunk = 0;
  for (auto _ : state) {
    sim::WVec<std::int64_t> start{};
    for (std::size_t r = 0; r < 4; ++r)
      start[r] = rows[(next + r) & 4095] + 8 * chunk;
    next += 4;
    chunk = (chunk + 1) & 3;
    if (use_runs) {
      benchmark::DoNotOptimize(warp.load_f32_runs(data, start, 0xFu, 8, 8));
    } else {
      sim::WVec<std::int64_t> idx{};
      for (std::size_t l = 0; l < 32; ++l)
        idx[l] = start[l / 8] + static_cast<std::int64_t>(l % 8);
      benchmark::DoNotOptimize(warp.load_f32(data, idx, sim::kFullMask));
    }
  }
  state.counters["sectors/req"] =
      static_cast<double>(rec.sectors) / static_cast<double>(rec.requests);
}
BENCHMARK(BM_SubwarpGather)->Arg(0)->Arg(1);

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

// The serving pattern: every request's convolution starts from reset caches,
// so its probes are nearly all cold misses. Each iteration resets a
// full-V100 cache hierarchy and probes 4,096 lines of a 64 MB range, L1
// first and the L2 on an L1 miss, spread over the 80 SMs.
void BM_CacheColdAfterReset(benchmark::State& state) {
  sim::MemorySystem sys(sim::GpuSpec::v100());
  Rng rng(8);
  std::vector<std::uint64_t> addrs(4096);
  for (std::uint64_t& a : addrs) a = rng.next_below(64ull << 20) & ~127ull;
  const std::size_t sms = sys.l1.size();
  for (auto _ : state) {
    sys.reset_caches();
    std::int64_t hits = 0;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const bool l1_hit = sys.l1[i % sms].access(addrs[i]);
      hits += l1_hit || sys.l2.access(addrs[i]);
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_CacheColdAfterReset);

// The V100 L2 geometry (3,072 sets x 16 ways) under a random stream over
// four times its capacity: mostly misses into full sets.
void BM_CacheL2Miss(benchmark::State& state) {
  const sim::GpuSpec spec = sim::GpuSpec::v100();
  sim::SetAssocCache cache(spec.l2_bytes, spec.line_bytes, spec.l2_ways);
  const auto span = static_cast<std::uint64_t>(4 * spec.l2_bytes);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next_below(span) & ~127ull));
  }
  state.counters["hit_rate"] = cache.hit_rate();
}
BENCHMARK(BM_CacheL2Miss);

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

// What every sweep job pays around its kernels: a fresh scaled device whose
// arena grows through allocations of 0.5, 1, ... 32 MB, each touched once
// per 4 KB page as a run filling its buffers would, then is destroyed.
void BM_FreshDeviceArena(benchmark::State& state) {
  for (auto _ : state) {
    sim::Device dev(sim::GpuSpec::v100_scaled(20));
    for (std::int64_t bytes = 512 << 10; bytes <= 32 << 20; bytes *= 2) {
      const auto p = dev.mem().alloc<std::byte>(bytes);
      std::byte* d = dev.mem().view(p).data();
      for (std::int64_t i = 0; i < bytes; i += 4096) d[i] = std::byte{1};
      benchmark::DoNotOptimize(d);
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FreshDeviceArena);

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

// build_csr on the edge lists its callers hand it. Arg 0: replica synthesis,
// a shuffled 1M-edge power-law list. Arg 1: ego scale, the presorted
// dst-major list of the 2-hop ego around the PD replica's largest hub,
// capped at 512 vertices; the serving fallback's graph::extract_partition
// builds lists of this order and size from one request's ego. Each iteration
// copies the list in, since build_csr takes it by value.
void BM_BuildCsr(benchmark::State& state) {
  Rng rng(6);
  graph::Csr g;
  if (state.range(0) == 0) {
    g = graph::power_law(100'000, 1'000'000, 2.2, rng);
  } else {
    const graph::Csr pd = graph::make_dataset(graph::dataset_by_abbr("PD"));
    graph::VertexId hub = 0;
    for (graph::VertexId v = 1; v < pd.num_vertices(); ++v)
      if (pd.degree(v) > pd.degree(hub)) hub = v;
    g = serve::ego_subgraph(pd, hub, 2, 512).csr;
  }
  std::vector<graph::Edge> edges = graph::to_edge_list(g);
  if (state.range(0) == 0) {
    for (std::size_t i = edges.size() - 1; i > 0; --i)
      std::swap(edges[i], edges[rng.next_below(i + 1)]);
  }
  for (auto _ : state) {
    const graph::Csr out = graph::build_csr(g.num_vertices(), edges, {.dedup = false});
    benchmark::DoNotOptimize(out.indices().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
  state.counters["edges"] = static_cast<double>(edges.size());
}
BENCHMARK(BM_BuildCsr)->Arg(0)->Arg(1);

// Per-request ego extraction of the serving tier: 2-hop egos capped at 512
// vertices around seeded query vertices of the PD replica. Arg 0: the
// one-shot ego_subgraph call, which sizes a fresh table per request. Arg 1:
// one EgoExtractor reused across requests, as generate_traffic runs it.
void BM_EgoSubgraph(benchmark::State& state) {
  const graph::Csr g = graph::make_dataset(graph::dataset_by_abbr("PD"));
  serve::EgoExtractor egos(g);
  Rng rng(7);
  std::int64_t vertices = 0;
  for (auto _ : state) {
    const auto q = static_cast<graph::VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    const graph::LocalGraph ego = state.range(0) == 0
                                      ? serve::ego_subgraph(g, q, 2, 512)
                                      : egos.extract(q, 2, 512);
    vertices += ego.csr.num_vertices();
    benchmark::DoNotOptimize(ego.csr.indices().data());
  }
  state.counters["ego_vertices"] = static_cast<double>(vertices) /
                                   static_cast<double>(state.iterations());
}
BENCHMARK(BM_EgoSubgraph)->Arg(0)->Arg(1);

// The serving tier's traffic synthesis end to end: 2,000 Poisson requests
// with 2-hop egos capped at 512 vertices over the PD replica at 200K edges
// (the perfbench serve replica), each with its gathered F=32 feature rows.
void BM_GenerateTraffic(benchmark::State& state) {
  const graph::Csr g = graph::make_dataset(graph::dataset_by_abbr("PD"),
                                           {.max_edges = 200'000, .seed = 7});
  Rng rng(7);
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), 32, rng);
  serve::TrafficOptions t;
  t.num_requests = 2000;
  t.hops = 2;
  t.max_ego_vertices = 512;
  t.seed = 7;
  for (auto _ : state) {
    const std::vector<serve::Request> reqs =
        serve::generate_traffic(g, feat, t);
    benchmark::DoNotOptimize(reqs.data());
  }
  state.SetItemsProcessed(state.iterations() * t.num_requests);
}
BENCHMARK(BM_GenerateTraffic)->Unit(benchmark::kMillisecond);

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
