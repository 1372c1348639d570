// The benchmark's own span recorder (perfbench/README.md, "Tracing").
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the library is instrumented. Every
// span carries its name, start, end, parent and the id of the request
// it belongs to. Spans and counts stay in memory until Write() is
// called at exit. A disabled Tracer records nothing: each Span then
// costs one branch.
//
// Single-threaded by contract: one Tracer per replay world, driven from
// the replay loop's thread (library fan-outs run inside a span, never
// across one).

#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// \brief Spans and counts recorded from now on belong to `request`.
  void BeginRequest(uint64_t request) { request_ = request; }

  /// \brief Records a count at a layer boundary (ignored when disabled).
  void Count(std::string name, double value) {
    if (!enabled_) return;
    counts_.push_back(CountRecord{request_, std::move(name), value});
  }

  /// \brief RAII span: opened on construction, closed on destruction;
  /// its parent is the innermost span open when it started.
  class Span {
   public:
    Span(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = tracer_.spans_.size();
      const uint32_t parent =
          tracer_.open_.empty() ? 0 : tracer_.open_.back();
      tracer_.spans_.push_back(SpanRecord{tracer_.request_,
                                          static_cast<uint32_t>(index_ + 1),
                                          parent, std::move(name), NowNs(),
                                          0});
      tracer_.open_.push_back(static_cast<uint32_t>(index_ + 1));
      active_ = true;
    }
    ~Span() {
      if (!active_) return;
      tracer_.spans_[index_].end_ns = NowNs();
      tracer_.open_.pop_back();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    size_t index_ = 0;
    bool active_ = false;
  };

  /// \brief Writes one JSON object per line: spans as
  /// {"r","id","p","n","s","e"} (request, id, parent id or 0, name,
  /// start and end in ns) and counts as {"r","c","v"}.
  void Write(std::ostream& out) const {
    out << std::setprecision(17);
    for (const SpanRecord& s : spans_) {
      out << "{\"r\":" << s.request << ",\"id\":" << s.id
          << ",\"p\":" << s.parent << ",\"n\":\"" << s.name
          << "\",\"s\":" << s.start_ns << ",\"e\":" << s.end_ns << "}\n";
    }
    for (const CountRecord& c : counts_) {
      out << "{\"r\":" << c.request << ",\"c\":\"" << c.name
          << "\",\"v\":" << c.value << "}\n";
    }
  }

 private:
  struct SpanRecord {
    uint64_t request;
    uint32_t id;
    uint32_t parent;
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct CountRecord {
    uint64_t request;
    std::string name;
    double value;
  };

  bool enabled_ = false;
  uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<CountRecord> counts_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench
