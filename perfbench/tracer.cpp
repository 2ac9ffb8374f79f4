#include "tracer.hpp"

#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace tlp::perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string us(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_->close(index_);
}

Tracer::Scope Tracer::span(const std::string& name, std::int64_t id) {
  if (!enabled_) return {this, -1};
  Span s;
  s.name = name;
  s.rep = rep_;
  s.start_s = now_s();
  s.parent = open_.empty() ? -1 : open_.back();
  s.id = id;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return {this, index};
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  open_.pop_back();
}

void Tracer::add_sim_span(const std::string& track, const std::string& name,
                          double start_ms, double dur_ms, std::int64_t id) {
  sim_spans_.push_back({track, name, start_ms, dur_ms, id});
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  // name -> rep -> summed self time
  std::map<std::string, std::map<std::string, double>> per_rep;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    per_rep[spans_[i].name][spans_[i].rep] += self[i];
  std::map<std::string, double> out;
  for (const auto& [name, reps] : per_rep) {
    std::vector<double> xs;
    for (const auto& [rep, t] : reps) xs.push_back(t);
    out[name] = median(std::move(xs));
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const auto process_name = [](int pid, const char* name) {
    return R"({"ph":"M","name":"process_name","pid":)" + std::to_string(pid) +
           R"(,"args":{"name":)" + quoted(name) + "}}";
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << process_name(1, "host time (benchmark spans)") << ",\n"
      << process_name(2, "simulated time (modelled GPU clock)");
  for (const Span& s : spans_) {
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":" << quoted(s.name)
        << ",\"ts\":" << us(s.start_s) << ",\"dur\":" << us(s.end_s - s.start_s)
        << ",\"args\":{\"rep\":" << quoted(s.rep) << ",\"parent\":"
        << (s.parent >= 0 ? quoted(spans_[static_cast<std::size_t>(s.parent)]
                                       .name)
                          : std::string("null"))
        << ",\"id\":" << s.id << "}}";
  }
  // Simulated spans may overlap (concurrent requests), so they are async
  // begin/end pairs keyed by work id; Perfetto lays them out per track.
  for (const SimSpan& s : sim_spans_) {
    const std::string head = ",\n{\"pid\":2,\"tid\":2,\"cat\":" +
                             quoted(s.track) + ",\"name\":" + quoted(s.name) +
                             ",\"id\":" + std::to_string(s.id);
    out << head << ",\"ph\":\"b\",\"ts\":" << us(s.start_ms * 1e-3) << "}";
    out << head << ",\"ph\":\"e\",\"ts\":"
        << us((s.start_ms + s.dur_ms) * 1e-3) << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace tlp::perfbench
