#include "rtbench/report.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rtbench {

namespace {

/// 1-based nearest rank of the q-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double tail_quantile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
  for (const double q : kLadder)
    if (n > 0 && samples_beyond(n, q) >= min_beyond) return q;
  return 0.0;
}

Timing summarize(const std::vector<double>& samples) {
  Timing t;
  t.n = samples.size();
  t.p50 = percentile(samples, 0.5);
  t.p90 = percentile(samples, 0.9);
  t.tail_q = tail_quantile(t.n);
  t.tail = t.tail_q > 0.0 ? percentile(samples, t.tail_q) : t.p50;
  return t;
}

std::string tail_note(const Timing& t, const char* unit) {
  if (t.tail_q == 0.0) return "under 20 samples: no percentile has ten beyond it";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "tail p%g = %.6g %s", t.tail_q * 100.0, t.tail, unit);
  return buf;
}

std::string Ratio::base() const {
  const auto part = [](double v) {
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
      std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
      std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  return part(num) + "/" + part(den);
}

std::string full_digits(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan; never emitted by a valid run
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples,
                 std::string note, bool contract) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), samples, std::move(note), contract});
}

void Report::add_ratio(std::string name, const Ratio& r, std::size_t samples, bool contract) {
  add(std::move(name), r.value(), "ratio", samples, "base " + r.base(), contract);
}

void Report::check(const std::string& what, bool ok, const std::string& detail) {
  if (!ok) ++failed_checks_;
  check_lines_.push_back(std::string(ok ? "ok    " : "FAIL  ") + what +
                         (detail.empty() ? "" : " (" + detail + ")"));
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::print_human(std::FILE* out) const {
  for (const auto& m : metrics_) {
    std::fprintf(out, "  %-34s %14.6g %-8s n=%-7zu %s%s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples, m.note.c_str(), m.contract ? "  [reported]" : "");
  }
  for (const auto& c : check_lines_) std::fprintf(out, "  check %s\n", c.c_str());
}

std::string Report::json_line() const {
  std::string s = "{\"correct\": ";
  s += correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!m.contract) continue;
    if (!first) s += ", ";
    first = false;
    s += '"';
    s += json_escape(m.name);
    s += "\": {\"value\": ";
    s += full_digits(m.value);
    s += ", \"unit\": \"";
    s += json_escape(m.unit);
    s += "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace rtbench
