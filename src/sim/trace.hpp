// Access-trace recorder — the data source for the tlpsan analysis passes
// (src/analysis/).
//
// When an AccessTrace is attached to a MemorySystem, every warp-level global
// memory request is recorded as a TraceAccess: which warp issued it, from
// which static access site, the per-lane byte addresses, the access width,
// and whether it was a load, a plain store, or an atomic. Kernel launch
// boundaries partition the trace; within a launch warps are concurrent,
// across launches the implicit device synchronization orders everything —
// the happens-before structure the race pass exploits.
//
// Access sites: kernels annotate groups of memory operations with
// TLP_SITE("label") so diagnostics can name the source construct instead of
// a raw address. Sites are interned once per call location (function-local
// static), so their ids are stable for the lifetime of the process. A site
// can carry suppressions — rule ids that are *expected* to fire there (e.g.
// the edge-centric baseline's uncoalesced feature gather, which the paper
// documents as the motivating pathology) — recorded with a reason so the
// finding stays visible in reports without failing the diagnostics gate.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace tlp::sim {

inline constexpr int kTraceWarpSize = 32;

/// A static source location that issues global-memory accesses. Interned by
/// SiteRegistry; `id` 0 is reserved for "unannotated".
struct AccessSite {
  std::uint32_t id = 0;
  std::string label;
  std::string file;
  int line = 0;
  /// Rule ids (e.g. "TLP-COAL-002") expected to fire at this site, with the
  /// justification that goes into the diagnostic report.
  std::vector<std::string> suppressed_rules;
  std::string suppress_reason;

  [[nodiscard]] bool suppresses(const std::string& rule) const;
};

/// Process-wide interning table for access sites. Single-threaded, like the
/// simulator itself.
class SiteRegistry {
 public:
  static SiteRegistry& instance();

  /// Interns a site. `suppress` is an optional space-separated list of rule
  /// ids expected at this site; `reason` documents why. Call once per static
  /// location (the TLP_SITE macros guarantee this).
  const AccessSite* intern(const char* label, const char* file, int line,
                           const char* suppress = nullptr,
                           const char* reason = nullptr);

  /// Site by id; id 0 (and unknown ids) return the shared "unannotated" site.
  [[nodiscard]] const AccessSite& site(std::uint32_t id) const;

  [[nodiscard]] std::size_t size() const { return sites_.size(); }

 private:
  SiteRegistry();
  // Deque-like stability: sites are handed out by pointer, so store by
  // unique address. A vector of pointers keeps ids dense.
  std::vector<AccessSite*> sites_;
};

/// Marks subsequent accesses on `warp` as belonging to the named site:
///   warp.site(TLP_SITE("feat_gather"));
#define TLP_SITE(label_str)                                              \
  ([]() -> const ::tlp::sim::AccessSite* {                               \
    static const ::tlp::sim::AccessSite* s =                             \
        ::tlp::sim::SiteRegistry::instance().intern(label_str, __FILE__, \
                                                    __LINE__);           \
    return s;                                                            \
  }())

/// Like TLP_SITE, but declares that the listed rules (space-separated) are
/// expected to fire here, with a human-readable justification.
#define TLP_SITE_SUPPRESS(label_str, rules_str, reason_str)              \
  ([]() -> const ::tlp::sim::AccessSite* {                               \
    static const ::tlp::sim::AccessSite* s =                             \
        ::tlp::sim::SiteRegistry::instance().intern(label_str, __FILE__, \
                                                    __LINE__, rules_str, \
                                                    reason_str);         \
    return s;                                                            \
  }())

enum class AccessKind : std::uint8_t { kLoad, kStore, kAtomic };

/// One warp-level memory request: up to 32 lane addresses issued together.
struct TraceAccess {
  std::int64_t warp = -1;   ///< launch-unique warp id
  std::int64_t item = -1;   ///< work item being executed (WarpKernel item)
  std::uint32_t site = 0;   ///< AccessSite id (0 = unannotated)
  std::uint32_t slot = 0;   ///< per-warp-context request ordinal
  AccessKind kind = AccessKind::kLoad;
  std::uint8_t bytes = 4;   ///< bytes per lane
  bool scalar = false;      ///< single-lane broadcast access (not divergence)
  std::uint32_t mask = 0;   ///< active lanes
  std::array<std::uint64_t, kTraceWarpSize> addr{};  ///< per-lane byte addrs

  [[nodiscard]] int active_lanes() const;
  /// Distinct 32 B sectors the active lanes touch (the coalescing metric).
  [[nodiscard]] int sectors() const;
};

/// All requests of one kernel launch, in simulation order. Simulation order
/// interleaves warps arbitrarily; only per-warp order is meaningful.
struct KernelTrace {
  std::string kernel;
  int launch_index = 0;
  std::vector<TraceAccess> accesses;
};

/// Allocation-lifecycle event recorded by DeviceMemory while a trace is
/// attached — the provenance layer that lets whole-trace passes reason about
/// *buffers* (label, byte range, generation) instead of raw addresses.
///
/// Host-side data movement is part of a buffer's life: an upload or a
/// memset-style fill acquires a mutable ArenaView (kHostWrite — the H2D /
/// cudaMemset analogue, which also marks the range initialized), a download
/// acquires a const view (kHostRead). kReset marks a DeviceMemory::reset():
/// every live buffer dies and — because the arena is a bump allocator —
/// subsequent allocations reuse byte offsets, so events carry the reset
/// generation to keep reused addresses distinguishable.
struct MemEvent {
  enum class Kind : std::uint8_t {
    kAlloc,
    kFree,
    kHostWrite,  ///< mutable host view: upload / fill (initializes the range)
    kHostRead,   ///< const host view: download / host-side inspection
    kReset,      ///< DeviceMemory::reset(): all live buffers die
  };
  Kind kind = Kind::kAlloc;
  std::int64_t alloc_id = -1;  ///< allocation ordinal within the trace; -1
                               ///< for host/reset events
  std::uint32_t site = 0;      ///< AccessSite id labeling the allocation
  std::uint64_t offset = 0;    ///< payload byte range start
  std::uint64_t bytes = 0;     ///< payload size (0 for kReset)
  std::uint64_t generation = 0;  ///< reset epoch the event belongs to

  // Position in the interleaved access stream: the event happened after
  // `launch` kernels had begun and after `pos` accesses of the most recent
  // one had been recorded. A whole-trace walk over kernel k's access i
  // applies every event with (launch < k + 1) || (launch == k + 1 &&
  // pos <= i) first.
  std::int32_t launch = 0;
  std::int64_t pos = 0;
};

/// Per-launch access recorder. Attach to a Device (Device::attach_trace) to
/// opt in; recording costs nothing when detached. A byte budget caps runaway
/// traces: when exhausted, recording stops and `truncated()` reports how many
/// accesses were dropped so no pass mistakes a capped trace for full
/// coverage.
class AccessTrace {
 public:
  /// `max_bytes` bounds the memory the recorder may hold (approximate,
  /// counted in sizeof(TraceAccess) units). 0 = unbounded.
  explicit AccessTrace(std::size_t max_bytes = std::size_t{1} << 30)
      : max_bytes_(max_bytes) {}

  void begin_kernel(const std::string& name);
  void record(const TraceAccess& a);

  /// Allocation-lifecycle hooks, called by DeviceMemory when attached.
  /// Events are stamped with their position in the access stream (see
  /// MemEvent) and are never dropped by the byte budget: there are orders of
  /// magnitude fewer events than accesses, and lifetime analysis is useless
  /// with holes in it.
  void record_alloc(std::int64_t alloc_id, std::uint32_t site,
                    std::uint64_t offset, std::uint64_t bytes);
  void record_free(std::int64_t alloc_id, std::uint64_t offset,
                   std::uint64_t bytes);
  void record_host_write(std::uint64_t offset, std::uint64_t bytes);
  void record_host_read(std::uint64_t offset, std::uint64_t bytes);
  void record_reset();

  [[nodiscard]] const std::vector<KernelTrace>& kernels() const {
    return kernels_;
  }
  [[nodiscard]] const std::vector<MemEvent>& events() const { return events_; }
  [[nodiscard]] bool truncated() const { return dropped_ > 0; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  [[nodiscard]] std::int64_t recorded() const { return recorded_; }

  void clear();

 private:
  MemEvent stamped(MemEvent::Kind kind) const;

  std::vector<KernelTrace> kernels_;
  std::vector<MemEvent> events_;
  std::uint64_t generation_ = 0;
  std::size_t max_bytes_ = 0;
  std::int64_t recorded_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace tlp::sim
