// The benchmark's correctness gate must be able to fail: a perturbed
// convolution output and a perturbed served row are each counted as a
// failed operation, and the unperturbed ones are not.
#include <gtest/gtest.h>

#include <cstring>

#include "gate.hpp"
#include "graph/generators.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "systems/system.hpp"

namespace tlp::perfbench {
namespace {

TEST(PerfbenchGate, PerturbedConvolutionOutputFails) {
  Rng rng(3);
  const graph::Csr g = graph::power_law(200, 2'000, 2.1, rng);
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), 16, rng);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGcn, 16, rng);
  const Reference ref = make_reference(g, feat, spec);

  tensor::Tensor out = ref.out;
  EXPECT_TRUE(conv_matches(out, ref));
  out.at(17, 5) += 0.01f;  // far outside rtol 1e-3 / atol 1e-4
  EXPECT_FALSE(conv_matches(out, ref));
}

// An unnormalized GIN sum over many neighbors can cancel to near zero; a
// different summation order then differs from the reference by more than
// atol + rtol*|ref|, while Σ|term| still bounds the difference.
TEST(PerfbenchGate, CancellingSumToleratesReordering) {
  const int deg = 4'000;
  std::vector<graph::EdgeOffset> indptr{0, deg, deg, deg};
  std::vector<graph::VertexId> indices(deg);
  for (int e = 0; e < deg; ++e) indices[e] = e < deg / 2 ? 1 : 2;
  const graph::Csr g(std::move(indptr), std::move(indices));
  tensor::Tensor feat(3, 1);
  feat.at(1, 0) = 0.7f;
  feat.at(2, 0) = -0.7f;  // neighbors cancel pairwise
  Rng rng(1);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGin, 1, rng);
  const Reference ref = make_reference(g, feat, spec);
  tensor::Tensor out = ref.out;
  out.at(0, 0) += 6e-4f;  // the reordering error seen on a dense replica
  EXPECT_FALSE(tensor::allclose(out, ref.out, 1e-3, 1e-4));
  EXPECT_TRUE(conv_matches(out, ref));
  out.at(0, 0) += 5.0f;  // a wrong answer still fails
  EXPECT_FALSE(conv_matches(out, ref));
}

TEST(PerfbenchGate, PerturbedServedRowCountsAsFailure) {
  Rng rng(5);
  const graph::Csr g = graph::power_law(300, 3'000, 2.1, rng);
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), 8, rng);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGcn, 8, rng);
  serve::TrafficOptions topts;
  topts.num_requests = 40;
  const auto traffic = serve::generate_traffic(g, feat, topts);

  serve::Server server(serve::ServerOptions{});
  const serve::ServeResult twin = server.run(traffic, spec);
  serve::ServeResult run = twin;
  ServeCheck clean = check_served(run, twin);
  EXPECT_EQ(clean.requests, 40);
  EXPECT_EQ(clean.compared, 40);
  EXPECT_EQ(clean.failures(), 0);

  // Flip one bit of one served embedding.
  std::vector<float>& row = run.responses[11].output;
  ASSERT_FALSE(row.empty());
  std::uint32_t bits = 0;
  std::memcpy(&bits, &row[0], sizeof bits);
  bits ^= 1u;
  std::memcpy(&row[0], &bits, sizeof bits);
  const ServeCheck perturbed = check_served(run, twin);
  EXPECT_EQ(perturbed.mismatched, 1);
  EXPECT_EQ(perturbed.failures(), 1);

  // A rejected request is a failed operation too.
  run.responses[12].outcome = serve::Outcome::kRejected;
  EXPECT_EQ(check_served(run, twin).failures(), 2);
}

// The serve workload counts warp requests and launches with a one-entry
// access trace; the counts must equal the profiler's for every system.
TEST(PerfbenchGate, CountingTraceMatchesProfiler) {
  Rng rng(7);
  const graph::Csr g = graph::power_law(400, 6'000, 2.1, rng);
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), 16, rng);
  for (const models::ModelKind kind : models::kAllModels) {
    const models::ConvSpec spec = models::ConvSpec::make(kind, 16, rng);
    for (const std::string& name : systems::table5_system_names()) {
      auto sys = systems::make_system(name);
      if (!sys->supports(kind, false)) continue;
      sim::Device dev;
      sim::AccessTrace counter(1);
      dev.attach_trace(&counter);
      sys->run(dev, g, feat, spec);
      std::int64_t requests = 0;
      for (const sim::KernelRecord& r : dev.profiler().records())
        requests += r.requests;
      EXPECT_EQ(counter.recorded() + counter.dropped(), requests) << name;
      EXPECT_EQ(counter.kernels().size(), dev.profiler().records().size())
          << name;
    }
  }
}

TEST(PerfbenchGate, DigestSeesEveryRecordCounter) {
  sim::KernelRecord a;
  a.name = "k";
  a.requests = 10;
  sim::KernelRecord b = a;
  Digest da;
  Digest db;
  add_records(da, std::vector<sim::KernelRecord>{a});
  add_records(db, std::vector<sim::KernelRecord>{b});
  EXPECT_EQ(da.value(), db.value());
  b.l2_hits = 1;
  Digest dc;
  add_records(dc, std::vector<sim::KernelRecord>{b});
  EXPECT_NE(da.value(), dc.value());
}

}  // namespace
}  // namespace tlp::perfbench
