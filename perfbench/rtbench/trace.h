// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around every public library call it makes in
// a traced run: name, start, end, the enclosing span, and the frame or
// packet id. Spans stay in memory and are written out when the run ends.
// A span's self time is its duration minus the part of it that its direct
// children cover. Single-threaded: spans nest in call order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtbench/report.h"

namespace rtbench {

struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
  std::int64_t item = -1;    ///< frame / packet / chunk id, -1 when none
};

class Tracer {
 public:
  /// Closes its span on destruction. A scope over a null tracer is a no-op,
  /// so one code path serves the traced and the untraced run.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t item);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Adds an already-timed span (tests build nested sets this way).
  std::int32_t add(const Span& s);

  /// Writes one JSON object per span (name, start_ns, end_ns, parent, item).
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the span).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Adds `<base>_p50_us`, `<base>_p90_us`, `<base>_calls` and `<base>_busy_s`
/// (summed self time) for every span named `base`; `note` is appended to
/// each line.
void add_layer_metrics(const std::vector<Span>& spans, const std::vector<std::int64_t>& self_ns,
                       const std::string& base, Report& report, const std::string& note = {});

}  // namespace rtbench
