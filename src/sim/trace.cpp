#include "sim/trace.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/check.hpp"

namespace tlp::sim {

bool AccessSite::suppresses(const std::string& rule) const {
  return std::find(suppressed_rules.begin(), suppressed_rules.end(), rule) !=
         suppressed_rules.end();
}

SiteRegistry& SiteRegistry::instance() {
  // Intentionally leaked: interned AccessSite pointers are cached in
  // function-local statics at every TLP_SITE expansion, so the registry must
  // outlive all static destructors. Never destroying it keeps the sites
  // reachable (and LeakSanitizer quiet).
  static SiteRegistry* reg = new SiteRegistry;
  return *reg;
}

SiteRegistry::SiteRegistry() {
  // Reserve id 0 for accesses issued without a site() annotation.
  auto* unannotated = new AccessSite{};
  unannotated->label = "<unannotated>";
  sites_.push_back(unannotated);
}

const AccessSite* SiteRegistry::intern(const char* label, const char* file,
                                       int line, const char* suppress,
                                       const char* reason) {
  auto* s = new AccessSite{};
  s->id = static_cast<std::uint32_t>(sites_.size());
  s->label = label;
  s->file = file;
  s->line = line;
  if (suppress != nullptr) {
    std::istringstream is(suppress);
    std::string rule;
    while (is >> rule) s->suppressed_rules.push_back(rule);
    if (reason != nullptr) s->suppress_reason = reason;
    TLP_CHECK_MSG(!s->suppressed_rules.empty(),
                  "TLP_SITE_SUPPRESS at " << file << ':' << line
                                          << " lists no rule ids");
  }
  sites_.push_back(s);
  return s;
}

const AccessSite& SiteRegistry::site(std::uint32_t id) const {
  if (id >= sites_.size()) return *sites_[0];
  return *sites_[id];
}

int TraceAccess::active_lanes() const { return std::popcount(mask); }

int TraceAccess::sectors() const {
  std::array<std::uint64_t, kTraceWarpSize> sec{};
  int n = 0;
  for (int l = 0; l < kTraceWarpSize; ++l) {
    if (((mask >> l) & 1u) == 0) continue;
    const std::uint64_t s = addr[static_cast<std::size_t>(l)] >> 5;
    bool seen = false;
    for (int i = 0; i < n; ++i) {
      if (sec[static_cast<std::size_t>(i)] == s) {
        seen = true;
        break;
      }
    }
    if (!seen) sec[static_cast<std::size_t>(n++)] = s;
  }
  return n;
}

void AccessTrace::begin_kernel(const std::string& name) {
  KernelTrace kt;
  kt.kernel = name;
  kt.launch_index = static_cast<int>(kernels_.size());
  kernels_.push_back(std::move(kt));
}

void AccessTrace::record(const TraceAccess& a) {
  TLP_CHECK_MSG(!kernels_.empty(),
                "AccessTrace::record outside a kernel launch");
  if (max_bytes_ > 0 &&
      static_cast<std::size_t>(recorded_) * sizeof(TraceAccess) >= max_bytes_) {
    ++dropped_;
    return;
  }
  kernels_.back().accesses.push_back(a);
  ++recorded_;
}

MemEvent AccessTrace::stamped(MemEvent::Kind kind) const {
  MemEvent ev;
  ev.kind = kind;
  ev.generation = generation_;
  ev.launch = static_cast<std::int32_t>(kernels_.size());
  ev.pos = kernels_.empty()
               ? 0
               : static_cast<std::int64_t>(kernels_.back().accesses.size());
  return ev;
}

void AccessTrace::record_alloc(std::int64_t alloc_id, std::uint32_t site,
                               std::uint64_t offset, std::uint64_t bytes) {
  MemEvent ev = stamped(MemEvent::Kind::kAlloc);
  ev.alloc_id = alloc_id;
  ev.site = site;
  ev.offset = offset;
  ev.bytes = bytes;
  events_.push_back(ev);
}

void AccessTrace::record_free(std::int64_t alloc_id, std::uint64_t offset,
                              std::uint64_t bytes) {
  MemEvent ev = stamped(MemEvent::Kind::kFree);
  ev.alloc_id = alloc_id;
  ev.offset = offset;
  ev.bytes = bytes;
  events_.push_back(ev);
}

void AccessTrace::record_host_write(std::uint64_t offset,
                                    std::uint64_t bytes) {
  MemEvent ev = stamped(MemEvent::Kind::kHostWrite);
  ev.offset = offset;
  ev.bytes = bytes;
  events_.push_back(ev);
}

void AccessTrace::record_host_read(std::uint64_t offset, std::uint64_t bytes) {
  MemEvent ev = stamped(MemEvent::Kind::kHostRead);
  ev.offset = offset;
  ev.bytes = bytes;
  events_.push_back(ev);
}

void AccessTrace::record_reset() {
  events_.push_back(stamped(MemEvent::Kind::kReset));
  ++generation_;
}

void AccessTrace::clear() {
  kernels_.clear();
  events_.clear();
  generation_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

}  // namespace tlp::sim
