#include <cstdio>

#include "rtbench/workloads.h"

namespace rtbench {

void add_end_to_end(const EndToEnd& e, bool contract, const char* step, const char* work,
                    Report& report) {
  const Timing t = summarize(e.step_ms);
  const std::string tail = std::string("per ") + step + "; " + tail_note(t, "ms");
  char per[64];
  std::snprintf(per, sizeof(per), "median of %zu set-ups", e.setup_s.size());
  report.add("setup_s", median(e.setup_s), "s", e.setup_s.size(), per, contract);
  report.add("step_ms_p50", t.p50, "ms", t.n, tail, contract);
  report.add("step_ms_p90", t.p90, "ms", t.n, tail, contract);
  std::snprintf(per, sizeof(per), "%ss per host second, median over passes", work);
  report.add("throughput_per_s", median(e.pass_throughput), "1/s", e.pass_throughput.size(), per,
             contract);
  report.add("delivery_ratio", e.delivery.value(), "ratio",
             static_cast<std::size_t>(e.delivery.den), "base " + e.delivery.base(), contract);
}

void add_trace_overhead(const std::vector<double>& untraced_ms,
                        const std::vector<double>& traced_ms, Report& report) {
  const double base = median(untraced_ms);
  // Base: the untraced median step in ms.
  report.add_ratio("trace.overhead_ratio", {median(traced_ms) - base, base}, traced_ms.size(),
                   true);
}

}  // namespace rtbench
