#include "fuzz/oracles.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "fuzz/kernel_runners.hpp"
#include "graph/reorder.hpp"
#include "models/reference.hpp"
#include "serve/server.hpp"
#include "sim/device.hpp"
#include "systems/partitioned.hpp"
#include "systems/system.hpp"
#include "systems/tlpgnn_system.hpp"

namespace tlp::fuzz {

using graph::Csr;
using systems::RunResult;
using tensor::Tensor;

namespace {

constexpr double kRtol = 1e-3;
constexpr double kAtol = 1e-4;

bool bit_identical(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto fa = a.flat();
  const auto fb = b.flat();
  return std::memcmp(fa.data(), fb.data(), fa.size_bytes()) == 0;
}

/// Runs `fn`, converting any escaped exception into an OracleFailure so one
/// crashing subject does not abort the whole fuzz iteration.
template <class Fn>
void guarded(const std::string& oracle, const std::string& subject,
             std::vector<OracleFailure>* out, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    out->push_back({oracle, subject, std::string("exception: ") + e.what()});
  } catch (...) {
    out->push_back({oracle, subject, "unknown exception"});
  }
}

}  // namespace

CaseContext CaseContext::make(const CaseSpec& c) {
  CaseContext cx;
  cx.spec = c;
  cx.g = build_graph(c);
  cx.h = make_features(c, cx.g);
  cx.conv = make_conv_spec(c, cx.g);
  cx.ref = models::reference_conv(cx.g, cx.h, cx.conv);
  return cx;
}

bool outputs_close(const Tensor& got, const Tensor& ref, std::string* detail) {
  if (got.rows() != ref.rows() || got.cols() != ref.cols()) {
    if (detail) {
      std::ostringstream os;
      os << "shape (" << got.rows() << "," << got.cols() << ") vs ref ("
         << ref.rows() << "," << ref.cols() << ")";
      *detail = os.str();
    }
    return false;
  }
  const auto fg = got.flat();
  const auto fr = ref.flat();
  for (std::size_t i = 0; i < fg.size(); ++i) {
    // allclose rejects these as well; checking them first lets the detail
    // name the index of the first non-finite disagreement.
    if (std::isfinite(fg[i]) != std::isfinite(fr[i]) ||
        std::isnan(fg[i]) != std::isnan(fr[i])) {
      if (detail) {
        std::ostringstream os;
        os << "non-finite mismatch at flat index " << i << ": got " << fg[i]
           << " vs ref " << fr[i];
        *detail = os.str();
      }
      return false;
    }
  }
  if (!tensor::allclose(got, ref, kRtol, kAtol)) {
    if (detail) {
      std::ostringstream os;
      os << "max |diff| " << tensor::max_abs_diff(got, ref) << " exceeds rtol "
         << kRtol << " atol " << kAtol;
      *detail = os.str();
    }
    return false;
  }
  return true;
}

void check_metrics(const std::string& subject, const sim::Metrics& m,
                   std::vector<OracleFailure>* out) {
  auto fail = [&](const std::string& detail) {
    out->push_back({"metrics", subject, detail});
  };
  auto in_unit = [&](const char* name, double v) {
    if (!(v >= 0.0 && v <= 1.0 + 1e-9)) {
      std::ostringstream os;
      os << name << " = " << v << " outside [0, 1]";
      fail(os.str());
    }
  };
  if (m.kernel_launches <= 0) return;  // nothing ran; nothing to bound
  in_unit("achieved_occupancy", m.achieved_occupancy);
  in_unit("sm_utilization", m.sm_utilization);
  in_unit("l1_hit_rate", m.l1_hit_rate);
  if (!(m.gpu_time_ms > 0.0)) fail("gpu_time_ms not positive");
  if (m.scoreboard_stall < 0.0) fail("scoreboard_stall negative");
  for (const auto& [name, v] :
       {std::pair<const char*, double>{"bytes_load", m.bytes_load},
        {"bytes_store", m.bytes_store},
        {"bytes_atomic", m.bytes_atomic},
        {"bytes_dram", m.bytes_dram}}) {
    if (v < 0.0) {
      std::ostringstream os;
      os << name << " negative (" << v << ")";
      fail(os.str());
    }
  }
  // DRAM sits below L2: its traffic cannot exceed what reached L2.
  const double l2_side = m.bytes_load + m.bytes_store + m.bytes_atomic;
  if (m.bytes_dram > l2_side * (1.0 + 1e-9) + 1.0) {
    std::ostringstream os;
    os << "bytes_dram " << m.bytes_dram << " exceeds L2-side traffic "
       << l2_side;
    fail(os.str());
  }
  // A warp request touches between 1 and 32 sectors.
  if (m.sectors_per_request != 0.0 &&
      (m.sectors_per_request < 1.0 - 1e-9 ||
       m.sectors_per_request > 32.0 + 1e-9)) {
    std::ostringstream os;
    os << "sectors_per_request " << m.sectors_per_request << " outside [1, 32]";
    fail(os.str());
  }
}

std::vector<OracleFailure> check_kernels(const CaseContext& cx) {
  std::vector<OracleFailure> out;
  const std::int64_t out_bytes = cx.ref.size() * 4;
  for (const KernelRunner& k : kernel_runners()) {
    if (!k.supports(cx.conv)) continue;
    guarded("kernel_diff", k.name, &out, [&] {
      sim::Device dev;
      const Tensor got = k.run(dev, cx.g, cx.h, cx.conv, cx.spec.launch);
      std::string detail;
      if (!outputs_close(got, cx.ref, &detail)) {
        out.push_back({"kernel_diff", k.name, detail});
      }
      const sim::Metrics m = dev.metrics();
      check_metrics(k.name, m, &out);
      // Compulsory store traffic: every output element is written at least
      // once, so store bytes can never undercut the output matrix itself.
      if (m.kernel_launches > 0 && m.bytes_store < out_bytes) {
        std::ostringstream os;
        os << "bytes_store " << m.bytes_store
           << " below compulsory output bytes " << out_bytes;
        out.push_back({"metrics", k.name, os.str()});
      }
    });
  }
  return out;
}

std::vector<OracleFailure> check_systems(const CaseContext& cx) {
  std::vector<OracleFailure> out;
  const std::int64_t out_bytes = cx.ref.size() * 4;
  for (const char* cname : {"tlpgnn", "dgl", "gnnadvisor", "featgraph",
                            "push", "edge", "pull"}) {
    const std::string name = cname;
    guarded("system_diff", name, &out, [&] {
      auto sys = systems::make_system(name);
      if (!sys->supports(cx.conv.kind, /*big_graph=*/false)) return;
      // Only the TLPGNN path implements per-edge weights; the replicas
      // reject them by contract.
      if (cx.conv.has_edge_weights() && name != "tlpgnn") return;
      // Multi-head GAT is implemented by the fused kernel only, which backs
      // the TLPGNN system and the pull micro baseline.
      if (cx.conv.kind == models::ModelKind::kGat && cx.conv.gat.heads > 1 &&
          name != "tlpgnn" && name != "pull") {
        return;
      }
      sim::Device dev;
      const RunResult r = sys->run(dev, cx.g, cx.h, cx.conv);
      std::string detail;
      if (!outputs_close(r.output, cx.ref, &detail)) {
        out.push_back({"system_diff", name, detail});
      }
      check_metrics(name, r.metrics, &out);
      if (r.metrics.kernel_launches > 0 && r.metrics.bytes_store < out_bytes) {
        std::ostringstream os;
        os << "bytes_store " << r.metrics.bytes_store
           << " below compulsory output bytes " << out_bytes;
        out.push_back({"metrics", name, os.str()});
      }
      if (r.runtime_ms + 1e-12 < r.measured_ms ||
          r.measured_ms + 1e-12 < r.gpu_time_ms) {
        out.push_back({"metrics", name,
                       "time hierarchy violated (runtime >= measured >= gpu)"});
      }
    });
  }
  return out;
}

std::vector<OracleFailure> check_reorder(const CaseContext& cx) {
  std::vector<OracleFailure> out;
  // Permuting the vertex ids permutes spec.edge_weights' edge order too;
  // restrict the oracle to the weight-free case where the convolution is a
  // pure function of the (graph, features) pair.
  if (cx.conv.has_edge_weights()) return out;
  const graph::VertexId n = cx.g.num_vertices();
  Rng prng(cx.spec.seed ^ 0x5e02de2ULL);
  graph::Permutation random_perm = graph::identity_order(n);
  for (graph::VertexId i = n - 1; i > 0; --i) {
    const auto j = static_cast<graph::VertexId>(
        prng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(random_perm[static_cast<std::size_t>(i)],
              random_perm[static_cast<std::size_t>(j)]);
  }
  const std::pair<const char*, graph::Permutation> perms[] = {
      {"degree_desc", graph::degree_desc_order(cx.g)},
      {"bfs", graph::bfs_order(cx.g)},
      {"random", std::move(random_perm)},
  };
  for (const auto& [pname, perm] : perms) {
    guarded("reorder", pname, &out, [&, pname = pname, &perm = perm] {
      const Csr pg = graph::apply_permutation(cx.g, perm);
      Tensor ph(n, cx.h.cols());
      for (graph::VertexId i = 0; i < n; ++i) {
        const auto src = cx.h.row(perm[static_cast<std::size_t>(i)]);
        std::copy(src.begin(), src.end(), ph.row(i).begin());
      }
      systems::TlpgnnSystem sys;
      sim::Device dev;
      const RunResult r = sys.run(dev, pg, ph, cx.conv);
      // Un-permute the output back to the original labeling.
      Tensor unperm(n, cx.ref.cols());
      for (graph::VertexId i = 0; i < n; ++i) {
        const auto src = r.output.row(i);
        std::copy(src.begin(), src.end(),
                  unperm.row(perm[static_cast<std::size_t>(i)]).begin());
      }
      std::string detail;
      if (!outputs_close(unperm, cx.ref, &detail)) {
        out.push_back({"reorder", pname,
                       "output not equivariant under " + std::string(pname) +
                           " relabeling: " + detail});
      }
    });
  }
  return out;
}

std::vector<OracleFailure> check_partitions(const CaseContext& cx) {
  std::vector<OracleFailure> out;
  if (cx.g.num_vertices() < 2) return out;  // run_partitioned requires k >= 2
  systems::TlpgnnSystem sys;
  Tensor base;
  guarded("partition", "unpartitioned", &out, [&] {
    sim::Device dev;
    base = sys.run(dev, cx.g, cx.h, cx.conv).output;
  });
  if (base.rows() == 0 && cx.g.num_vertices() > 0) return out;  // base failed
  for (const int k : {2, 3, 7}) {
    if (k > cx.g.num_vertices()) continue;
    guarded("partition", "k=" + std::to_string(k), &out, [&] {
      sim::Device dev;
      const RunResult r =
          systems::run_partitioned(sys, dev, cx.g, cx.h, cx.conv, k);
      if (!bit_identical(r.output, base)) {
        out.push_back({"partition", "k=" + std::to_string(k),
                       "partitioned output not bit-identical to the "
                       "unpartitioned run (max |diff| " +
                           std::to_string(tensor::max_abs_diff(r.output,
                                                               base)) +
                           ")"});
      }
      check_metrics("partitioned k=" + std::to_string(k), r.metrics, &out);
    });
  }
  return out;
}

std::vector<OracleFailure> check_determinism(const CaseContext& cx) {
  std::vector<OracleFailure> out;
  guarded("determinism", "tlpgnn", &out, [&] {
    systems::TlpgnnSystem sys;
    sim::Device d1, d2;
    const RunResult r1 = sys.run(d1, cx.g, cx.h, cx.conv);
    const RunResult r2 = sys.run(d2, cx.g, cx.h, cx.conv);
    if (!bit_identical(r1.output, r2.output)) {
      out.push_back({"determinism", "tlpgnn",
                     "two identical launches produced different outputs"});
    }
    const sim::Metrics &m1 = r1.metrics, &m2 = r2.metrics;
    if (m1.gpu_time_ms != m2.gpu_time_ms ||
        m1.bytes_load != m2.bytes_load ||
        m1.bytes_store != m2.bytes_store ||
        m1.bytes_atomic != m2.bytes_atomic ||
        m1.bytes_dram != m2.bytes_dram ||
        m1.achieved_occupancy != m2.achieved_occupancy ||
        m1.kernel_launches != m2.kernel_launches) {
      out.push_back({"determinism", "tlpgnn",
                     "two identical launches produced different counters"});
    }
  });
  return out;
}

std::vector<OracleFailure> check_assignments(const CaseContext& cx) {
  std::vector<OracleFailure> out;
  // Work items are independent, so the assignment policy may change timing
  // but never a single output bit. Exercise the first real strategy that can
  // express the model.
  const KernelRunner* runner = nullptr;
  for (const KernelRunner& k : kernel_runners()) {
    if (k.supports(cx.conv)) {
      runner = &k;
      break;
    }
  }
  if (runner == nullptr) return out;
  guarded("assignment", runner->name, &out, [&] {
    Tensor base;
    bool first = true;
    for (const sim::Assignment a :
         {sim::Assignment::kHardwareDynamic, sim::Assignment::kStaticChunk,
          sim::Assignment::kSoftwarePool}) {
      sim::LaunchConfig cfg = cx.spec.launch;
      cfg.assignment = a;
      sim::Device dev;
      Tensor got = runner->run(dev, cx.g, cx.h, cx.conv, cfg);
      if (first) {
        base = std::move(got);
        first = false;
      } else if (!bit_identical(got, base)) {
        out.push_back({"assignment", runner->name,
                       "output depends on the launch assignment policy"});
      }
    }
  });
  return out;
}

std::vector<OracleFailure> check_faults(const CaseContext& cx) {
  std::vector<OracleFailure> out;

  // Clean engine baseline (also covers Engine::conv vs reference).
  Tensor base;
  guarded("faults", "engine_clean", &out, [&] {
    Engine clean;
    const RunResult r = clean.conv(cx.g, cx.h, cx.conv);
    if (r.degradation.degraded) {
      out.push_back({"faults", "engine_clean",
                     "clean engine reported degradation"});
    }
    std::string detail;
    if (!outputs_close(r.output, cx.ref, &detail)) {
      out.push_back({"faults", "engine_clean", detail});
    }
    base = r.output;
  });
  if (base.rows() != cx.ref.rows()) return out;  // baseline failed; stop here

  // Injected OOM must degrade to a bit-identical partitioned run.
  if (cx.g.num_vertices() >= 4) {
    guarded("faults", "oom_degrade", &out, [&] {
      EngineOptions opts;
      opts.device.faults.oom_at_alloc = 1;
      Engine faulty(opts);
      const RunResult r = faulty.conv(cx.g, cx.h, cx.conv);
      if (!r.degradation.degraded) {
        out.push_back({"faults", "oom_degrade",
                       "injected OOM did not trigger degradation"});
      } else if (!bit_identical(r.output, base)) {
        out.push_back({"faults", "oom_degrade",
                       "degraded output not bit-identical to the clean run"});
      }
    });
  }

  // An injected launch failure must surface as tlp::LaunchFailure.
  guarded("faults", "launch_failure", &out, [&] {
    EngineOptions opts;
    opts.device.faults.fail_launch = 1;
    Engine faulty(opts);
    try {
      (void)faulty.conv(cx.g, cx.h, cx.conv);
      out.push_back({"faults", "launch_failure",
                     "injected launch fault did not raise LaunchFailure"});
    } catch (const LaunchFailure&) {
      // expected
    }
  });

  // ECC-style corruption in the feature buffer must not crash and must keep
  // the output shape. GCN only: its allocation order (indptr, indices, norm,
  // features) pins the feature buffer at index 3.
  if (cx.conv.kind == models::ModelKind::kGcn && !cx.conv.has_edge_weights() &&
      cx.h.size() > 0) {
    guarded("faults", "bit_flip", &out, [&] {
      EngineOptions opts;
      opts.device.faults.flip_at_launch = 1;
      opts.device.faults.flip_bits = 4;
      opts.device.faults.flip_alloc = 3;
      Engine faulty(opts);
      const RunResult r = faulty.conv(cx.g, cx.h, cx.conv);
      if (r.output.rows() != cx.ref.rows() ||
          r.output.cols() != cx.ref.cols()) {
        out.push_back({"faults", "bit_flip",
                       "bit-flipped run changed the output shape"});
      }
    });
  }
  return out;
}

std::vector<OracleFailure> check_serving(const CaseContext& cx) {
  std::vector<OracleFailure> out;
  if (cx.g.num_vertices() < 4) return out;  // too small to batch meaningfully

  // Per-request subgraphs do not preserve global edge order, so the server
  // rejects edge-weighted specs; strip the weights for this oracle.
  models::ConvSpec spec = cx.conv;
  spec.edge_weights.clear();

  serve::TrafficOptions topts;
  topts.num_requests = 10;
  topts.mean_interarrival_ms = 0.5;
  topts.hops = 1;
  topts.max_ego_vertices = 64;
  topts.seed = cx.spec.seed;
  const std::vector<serve::Request> traffic =
      serve::generate_traffic(cx.g, cx.h, topts);

  serve::ServerOptions sopts;
  sopts.queue_capacity = 16;
  sopts.max_batch = 4;
  sopts.batch_window_ms = 1.0;
  serve::StormEvent storm;
  storm.at_request = 3;
  storm.plan.oom_every = 16;
  storm.plan.oom_burst_len = 3;
  sopts.storms = {storm};

  const auto outcomes = [](const serve::ServeResult& r) {
    std::string s;
    for (const auto& resp : r.responses) s += serve::outcome_name(resp.outcome);
    return s;
  };

  guarded("serving", "determinism", &out, [&] {
    serve::Server a(sopts);
    serve::Server b(sopts);
    const serve::ServeResult ra = a.run(traffic, spec);
    const serve::ServeResult rb = b.run(traffic, spec);
    if (outcomes(ra) != outcomes(rb)) {
      out.push_back({"serving", "determinism",
                     "outcome sequence differs across identical replays: " +
                         outcomes(ra) + " vs " + outcomes(rb)});
    }
    if (ra.report.to_json().dump() != rb.report.to_json().dump()) {
      out.push_back({"serving", "determinism",
                     "SLO report not byte-identical across replays"});
    }
    for (std::size_t i = 0; i < ra.responses.size(); ++i) {
      if (ra.responses[i].output != rb.responses[i].output) {
        out.push_back({"serving", "determinism",
                       "served output differs across replays at req " +
                           std::to_string(i)});
        break;
      }
    }
    if (ra.report.unaccounted != 0) {
      out.push_back({"serving", "accounting",
                     std::to_string(ra.report.unaccounted) +
                         " requests unaccounted in the SLO report"});
    }

    // Graceful degradation contract: whatever the storm did, a served
    // response is the bit-identical fault-free answer.
    serve::ServerOptions clean_opts = sopts;
    clean_opts.storms.clear();
    serve::Server clean(clean_opts);
    const serve::ServeResult rc = clean.run(traffic, spec);
    if (rc.report.degraded != 0 || rc.report.failed != 0 ||
        rc.report.retried != 0) {
      out.push_back({"serving", "fault_free",
                     "fault-free run reported retries/degradation/failures"});
    }
    const serve::ServedComparison cmp =
        serve::compare_served(ra.responses, rc.responses);
    if (!cmp.mismatched.empty()) {
      out.push_back({"serving", "bit_identity",
                     "storm-served output for req " +
                         std::to_string(cmp.mismatched.front()) +
                         " differs from the fault-free run"});
    }
  });
  return out;
}

const std::vector<std::string>& oracle_names() {
  static const std::vector<std::string> kNames = {
      "kernel_diff", "system_diff", "reorder",    "partition",
      "determinism", "assignment",  "metrics",    "faults",
      "serving"};
  return kNames;
}

}  // namespace tlp::fuzz
