// Concrete tlpsan passes. See pass.hpp for the framework contract and
// DESIGN.md §7 for the methodology; tests instantiate these directly.
#pragma once

#include <cstdint>

#include "analysis/pass.hpp"

namespace tlp::analysis {

/// Fewest requests a site (CoalescingPass) or a launch (DivergencePass,
/// BalancePass) must issue before the pass judges it.
inline constexpr std::int64_t kMinRequests = 16;

/// TLP-RACE-001 — happens-before race detection over the access trace.
///
/// Happens-before structure: within one launch, warps synchronize with
/// nothing, so each warp's accesses form one totally ordered thread and any
/// two accesses from different warps are concurrent; the implicit device
/// synchronization between launches is a barrier that joins every warp's
/// vector clock, ordering all of launch k before all of launch k+1. Under
/// that structure a full vector-clock comparison (FastTrack-style epochs)
/// collapses to: concurrent iff same launch and different warp — which is
/// what the per-word shadow state below implements, per launch.
///
/// Conflicts on a word (two accesses, different warps, at least one a write,
/// not both atomic) are classified and reported with *both* access sites:
///   plain-write / plain-write   error  (lost update)
///   atomic / plain-write mix    error  (atomicity does not protect the
///                                       plain side)
///   plain-write / read          error  (torn or stale read)
///   atomic-write / read         warning (formally racy; sometimes a
///                                        deliberate monotonic read)
/// Atomic/atomic pairs are ordered by the L2 atomic units: not a race.
class RacePass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "race"; }
  [[nodiscard]] std::string rule() const override { return kRuleRace; }
  void run(const sim::KernelTrace& kt, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-COAL-002 — uncoalesced access sites: average 32 B sectors per warp
/// request far above the perfectly coalesced count (§4.3's coalescing
/// property, Table 2's metric), aggregated per static access site.
class CoalescingPass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "coalescing"; }
  [[nodiscard]] std::string rule() const override { return kRuleCoalesce; }
  void run(const sim::KernelTrace& kt, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-DIV-003 — lane-activity imbalance: the kernel's vector requests leave
/// most lanes inactive (§4.2's divergence concern). Scalar broadcast
/// accesses are exempt by construction.
class DivergencePass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "divergence"; }
  [[nodiscard]] std::string rule() const override { return kRuleDivergence; }
  void run(const sim::KernelTrace& kt, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-ATOM-004 — atomic-contention hotspots: the top-k most hammered
/// addresses and a serialization estimate (the atomic units retire
/// conflicting lane-ops one at a time — Observation I's traffic).
class AtomicContentionPass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override {
    return "atomic-contention";
  }
  [[nodiscard]] std::string rule() const override {
    return kRuleAtomicContention;
  }
  void run(const sim::KernelTrace& kt, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-RED-005 — redundant loads: a warp re-fetches a word it already loaded
/// *within the same work item* with no intervening store to it by anyone —
/// exactly the loads §6's register caching eliminates (Figure 7a vs 7b).
class RedundantLoadPass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "redundant-load"; }
  [[nodiscard]] std::string rule() const override {
    return kRuleRedundantLoad;
  }
  void run(const sim::KernelTrace& kt, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-BAL-008 — inter-warp load imbalance: one warp issues far more than
/// the mean per-warp request count. The paper's central scheduling claim
/// (§4.1) is that warp-per-vertex with FA+TM hides degree skew; this pass
/// measures the skew that actually reached the memory system. The
/// diagnostic's site is the dominant access site of the busiest warp, so a
/// kernel that accepts the skew can suppress at the gather it happens in.
class BalancePass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "balance"; }
  [[nodiscard]] std::string rule() const override { return kRuleBalance; }
  void run(const sim::KernelTrace& kt, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-INIT-006 — read-before-first-write: a kernel loads bytes of a traced
/// allocation that no host write (upload / fill via a mutable view) and no
/// device store initialized first. Uses the MemEvent shadow state; accesses
/// to addresses with no alloc event (buffers created before the trace was
/// attached) are skipped — provenance unknown is not provenance bad.
/// Atomics are read-modify-write: an atomic to an uninitialized word counts
/// as an uninitialized read.
class InitPass final : public WholeTracePass {
 public:
  [[nodiscard]] std::string name() const override { return "init"; }
  [[nodiscard]] std::string rule() const override { return kRuleInit; }
  void run(const sim::AccessTrace& trace, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-LIFE-007 — buffer-lifetime defects across the whole run: allocations
/// no kernel ever touched (dead weight against the Table 3 memory metric),
/// and write-only buffers — device-written but never device-read nor
/// downloaded (a const host view) before dying — whose stores were wasted
/// bandwidth. Reported per allocation site, aggregated over the run's
/// reset epochs.
class LifetimePass final : public WholeTracePass {
 public:
  [[nodiscard]] std::string name() const override { return "lifetime"; }
  [[nodiscard]] std::string rule() const override { return kRuleLifetime; }
  void run(const sim::AccessTrace& trace, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

/// TLP-REUSE-009 — reuse-distance thrashing: per-site LRU stack distance of
/// 128 B line reuses, measured over the whole run and compared against
/// PassOptions::gpu.l2_bytes. A site most of whose reuses are farther apart
/// than the L2 can hold re-pays DRAM for data it already fetched — the
/// §4.3/§6 locality claims, quantified. Distances are computed exactly
/// (Fenwick tree over last-touch timestamps); DeviceMemory::reset() events
/// clear the stack (a recycled byte offset is a different buffer).
class ReusePass final : public WholeTracePass {
 public:
  [[nodiscard]] std::string name() const override { return "reuse"; }
  [[nodiscard]] std::string rule() const override { return kRuleReuse; }
  void run(const sim::AccessTrace& trace, const PassOptions& opt,
           std::vector<Diagnostic>& out) const override;
};

}  // namespace tlp::analysis
