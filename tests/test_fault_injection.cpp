// Tests for the fault-injection plan, guarded device memory, and the
// OutOfMemory partitioned-fallback path through tlp::Engine.
#include <gtest/gtest.h>

#include <cstring>

#include "core/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "models/reference.hpp"
#include "tensor/tensor.hpp"

namespace tlp {
namespace {

graph::Csr ring_graph(graph::VertexId n) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v < n; ++v)
    edges.push_back({v, (v + 1) % n});
  return graph::build_csr(n, std::move(edges), {.dedup = false});
}

/// Bitwise equality — stricter than operator== (distinguishes -0.0f, treats
/// NaN == NaN), which is the contract the partitioned fallback promises.
void expect_bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const auto fa = a.flat();
  const auto fb = b.flat();
  EXPECT_EQ(std::memcmp(fa.data(), fb.data(), fa.size_bytes()), 0)
      << "partitioned output is not bit-identical to the full-graph run";
}

struct Workload {
  graph::Csr g;
  tensor::Tensor feat;
  models::ConvSpec spec;
};

Workload make_workload(models::ModelKind kind, graph::Csr g,
                       std::int64_t f = 16) {
  Rng rng(7);
  Workload w{std::move(g), {}, {}};
  w.feat = tensor::Tensor::random(w.g.num_vertices(), f, rng);
  w.spec = models::ConvSpec::make(kind, f, rng);
  return w;
}

TEST(FaultInjection, InjectedOomDegradesToBitIdenticalPartitionedRun) {
  Rng grng(3);
  Workload w = make_workload(models::ModelKind::kGcn,
                             graph::power_law(400, 3000, 2.3, grng));

  Engine clean;
  const systems::RunResult base = clean.conv(w.g, w.feat, w.spec);
  EXPECT_FALSE(base.degradation.degraded);

  EngineOptions opts;
  opts.device.faults.oom_at_alloc = 1;  // first device alloc fails once
  Engine faulty(opts);
  const systems::RunResult r = faulty.conv(w.g, w.feat, w.spec);

  EXPECT_TRUE(r.degradation.degraded);
  EXPECT_GE(r.degradation.partitions, 2);
  EXPECT_EQ(r.degradation.retries, 0);
  EXPECT_NE(r.degradation.reason.find("allocation"), std::string::npos);
  expect_bit_identical(base.output, r.output);
}

TEST(FaultInjection, DegradedRunStaysBitIdenticalAcrossModels) {
  for (const auto kind :
       {models::ModelKind::kGcn, models::ModelKind::kGin,
        models::ModelKind::kSage, models::ModelKind::kGat}) {
    Rng grng(11);
    Workload w = make_workload(kind, graph::power_law(300, 2400, 2.2, grng));

    Engine clean;
    const systems::RunResult base = clean.conv(w.g, w.feat, w.spec);

    EngineOptions opts;
    opts.device.faults.oom_at_alloc = 2;
    Engine faulty(opts);
    const systems::RunResult r = faulty.conv(w.g, w.feat, w.spec);

    EXPECT_TRUE(r.degradation.degraded) << models::model_name(kind);
    expect_bit_identical(base.output, r.output);
  }
}

TEST(FaultInjection, CapacityOomDegradesAndRecordsRetries) {
  Workload w = make_workload(models::ModelKind::kGcn, ring_graph(256));

  Engine clean;
  const systems::RunResult base = clean.conv(w.g, w.feat, w.spec);
  ASSERT_GT(base.peak_device_bytes, 0);

  EngineOptions opts;
  // Below the full-graph footprint, but comfortably above one half's.
  opts.device_memory_bytes = base.peak_device_bytes - 1;
  Engine small(opts);
  const systems::RunResult r = small.conv(w.g, w.feat, w.spec);

  EXPECT_TRUE(r.degradation.degraded);
  EXPECT_GE(r.degradation.partitions, 2);
  EXPECT_NE(r.degradation.reason.find("capacity"), std::string::npos);
  expect_bit_identical(base.output, r.output);
}

TEST(FaultInjection, ExhaustedRetriesPropagateOutOfMemory) {
  Workload w = make_workload(models::ModelKind::kGcn, ring_graph(64));
  EngineOptions opts;
  opts.device_memory_bytes = 512;  // nothing fits, ever
  Engine engine(opts);
  EXPECT_THROW((void)engine.conv(w.g, w.feat, w.spec), OutOfMemory);
}

TEST(FaultInjection, DegradationCanBeDisabled) {
  Workload w = make_workload(models::ModelKind::kGcn, ring_graph(64));
  EngineOptions opts;
  opts.device.faults.oom_at_alloc = 1;
  opts.degrade = false;
  Engine engine(opts);
  EXPECT_THROW((void)engine.conv(w.g, w.feat, w.spec), OutOfMemory);
}

TEST(FaultInjection, InjectedLaunchFailurePropagates) {
  Workload w = make_workload(models::ModelKind::kGcn, ring_graph(64));
  EngineOptions opts;
  opts.device.faults.fail_launch = 1;
  Engine engine(opts);
  try {
    (void)engine.conv(w.g, w.feat, w.spec);
    FAIL() << "expected LaunchFailure";
  } catch (const LaunchFailure& e) {
    EXPECT_FALSE(e.kernel.empty());
    EXPECT_NE(std::string(e.what()).find(e.kernel), std::string::npos);
  }
}

TEST(FaultInjection, BitFlipMakesReferenceCheckFail) {
  // Ring graph: every feature element feeds exactly one output element, so a
  // corrupted feature buffer must surface in the output.
  Workload w = make_workload(models::ModelKind::kGcn, ring_graph(128));

  Engine clean;
  const systems::RunResult base = clean.conv(w.g, w.feat, w.spec);
  const tensor::Tensor ref = models::reference_conv(w.g, w.feat, w.spec);
  ASSERT_TRUE(tensor::allclose(base.output, ref, 1e-3, 1e-4));

  EngineOptions opts;
  opts.device.faults.flip_at_launch = 1;
  opts.device.faults.flip_bits = 32;
  opts.device.faults.flip_alloc = 3;  // indptr, indices, norm, -> features
  Engine faulty(opts);
  const systems::RunResult r = faulty.conv(w.g, w.feat, w.spec);

  EXPECT_NE(std::memcmp(base.output.flat().data(), r.output.flat().data(),
                        base.output.flat().size_bytes()),
            0)
      << "bit flips in the feature buffer left the output unchanged";
  EXPECT_FALSE(tensor::allclose(r.output, ref, 1e-3, 1e-4))
      << "reference check failed to catch injected corruption";
}

// --- guarded-memory detection through real kernel launches -----------------

/// Stores one float past the end of its buffer (classic off-by-one).
class OobStoreKernel final : public sim::WarpKernel {
 public:
  OobStoreKernel(sim::DevPtr<float> buf, std::int64_t n) : buf_(buf), n_(n) {}
  [[nodiscard]] std::int64_t num_items() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "oob_store"; }
  void run_item(sim::WarpCtx& warp, std::int64_t) override {
    warp.store_scalar_f32(buf_, n_, 1.0f);  // one past the end
  }

 private:
  sim::DevPtr<float> buf_;
  std::int64_t n_;
};

/// All warps store non-atomically to element 0 — a write race.
class RacyPushKernel final : public sim::WarpKernel {
 public:
  explicit RacyPushKernel(sim::DevPtr<float> buf) : buf_(buf) {}
  [[nodiscard]] std::int64_t num_items() const override { return 8; }
  [[nodiscard]] std::string name() const override { return "racy_push"; }
  void run_item(sim::WarpCtx& warp, std::int64_t item) override {
    warp.store_scalar_f32(buf_, 0, static_cast<float>(item));
  }

 private:
  sim::DevPtr<float> buf_;
};

/// Same access pattern, but atomic — the legal way to combine across warps.
class AtomicPushKernel final : public sim::WarpKernel {
 public:
  explicit AtomicPushKernel(sim::DevPtr<float> buf) : buf_(buf) {}
  [[nodiscard]] std::int64_t num_items() const override { return 8; }
  [[nodiscard]] std::string name() const override { return "atomic_push"; }
  void run_item(sim::WarpCtx& warp, std::int64_t item) override {
    warp.atomic_add_f32(buf_, sim::WVec<std::int64_t>{},
                        sim::WVec<float>{static_cast<float>(item)}, 0x1u);
  }

 private:
  sim::DevPtr<float> buf_;
};

sim::Device guarded_device() {
  sim::DeviceOptions opts;
  opts.mem_mode = sim::MemoryMode::kGuarded;
  return sim::Device(sim::GpuSpec::v100(), opts);
}

TEST(GuardedMemory, RedzoneCatchesOobKernelStore) {
  sim::Device dev = guarded_device();
  const std::int64_t n = 16;
  sim::DevPtr<float> buf = dev.alloc_zeroed<float>(n);
  OobStoreKernel k(buf, n);
  try {
    dev.launch(k);
    FAIL() << "expected InvalidAccess";
  } catch (const InvalidAccess& e) {
    EXPECT_EQ(e.kernel, "oob_store");
    EXPECT_EQ(e.byte_addr, buf.addr(n));
    const std::string what = e.what();
    EXPECT_NE(what.find("oob_store"), std::string::npos);
    EXPECT_NE(what.find(std::to_string(buf.addr(n))), std::string::npos);
  }
}

TEST(GuardedMemory, RaceDetectorFlagsNonAtomicCrossWarpStores) {
  sim::Device dev = guarded_device();
  sim::DevPtr<float> buf = dev.alloc_zeroed<float>(4);
  RacyPushKernel k(buf);
  try {
    dev.launch(k);
    FAIL() << "expected WriteRace";
  } catch (const WriteRace& e) {
    EXPECT_EQ(e.kernel, "racy_push");
    EXPECT_EQ(e.byte_addr, buf.addr(0));
    EXPECT_NE(e.warp_a, e.warp_b);
  }
}

TEST(GuardedMemory, RaceDetectorPassesAtomicCrossWarpStores) {
  sim::Device dev = guarded_device();
  sim::DevPtr<float> buf = dev.alloc_zeroed<float>(4);
  AtomicPushKernel k(buf);
  EXPECT_NO_THROW(dev.launch(k));
  const std::vector<float> out = dev.download(buf);
  EXPECT_FLOAT_EQ(out[0], 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

TEST(GuardedMemory, RealConvolutionRunsCleanUnderGuards) {
  // The production kernels must not trip the OOB or race detectors.
  for (const auto kind : {models::ModelKind::kGcn, models::ModelKind::kGat}) {
    Rng grng(5);
    Workload w = make_workload(kind, graph::power_law(300, 2400, 2.3, grng));
    EngineOptions opts;
    opts.device.mem_mode = sim::MemoryMode::kGuarded;
    Engine engine(opts);
    const systems::RunResult r = engine.conv(w.g, w.feat, w.spec);
    const tensor::Tensor ref = models::reference_conv(w.g, w.feat, w.spec);
    EXPECT_TRUE(tensor::allclose(r.output, ref, 1e-3, 1e-4))
        << models::model_name(kind);
  }
}

}  // namespace
}  // namespace tlp
