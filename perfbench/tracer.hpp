// Span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around the public calls
// into each library layer (graph::make_dataset, GnnSystem::run, Server::run,
// ...). Each span has a name, a start and end in host seconds, the span that
// encloses it, an optional work id (job index or request id) and the
// repetition it belongs to ("setup2", "pass1", ...). Spans stay in memory
// and are written once, as Chrome trace-event JSON, when the run ends.
//
// Simulated-time spans (one per convolution or served request, laid out on
// the modelled GPU's clock) go on a second track of the same file, so one
// Perfetto view shows where both clocks went.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tlp::perfbench {

class Tracer {
 public:
  /// RAII span: records [construction, destruction) when the tracer was
  /// enabled at construction, and nothing otherwise.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer* tracer_;
    int index_;  ///< -1 = not recorded
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Repetition label stamped on every span opened from now on.
  void set_rep(std::string rep) { rep_ = std::move(rep); }

  /// Opens a span nested in the innermost open one. Use as
  /// `const auto s = tracer.span("graph.make_dataset");`.
  [[nodiscard]] Scope span(const std::string& name, std::int64_t id = -1);

  /// A simulated-time span on track `track` (e.g. "requests"), in ms of the
  /// modelled clock. Independent of enabled(): callers add them only when
  /// tracing.
  void add_sim_span(const std::string& track, const std::string& name,
                    double start_ms, double dur_ms, std::int64_t id);

  /// Per-layer self time: a span's duration minus the part its direct
  /// children cover, summed per span name within each repetition, then the
  /// median over the repetitions in which the name occurs. Unit: s.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes every span as Chrome trace-event JSON (open in Perfetto or
  /// chrome://tracing). Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::string rep;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    std::int64_t id = -1;
  };
  struct SimSpan {
    std::string track;
    std::string name;
    double start_ms = 0;
    double dur_ms = 0;
    std::int64_t id = -1;
  };

  void close(int index);
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  bool enabled_;
  std::string rep_ = "run";
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  std::vector<SimSpan> sim_spans_;
};

}  // namespace tlp::perfbench
