// Result bookkeeping for the benchmark: sample statistics, named metrics
// with units and sample counts, correctness checks, and the one-line JSON
// result the benchmark prints last.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rtbench {

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median of unsorted samples (nearest-rank, q = 0.5).
[[nodiscard]] double median(std::vector<double> samples);

/// Samples that lie strictly beyond the nearest-rank q-th percentile of n.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9 that still
/// has at least `min_beyond` samples beyond it; 0 when even the median
/// has fewer (fewer than 2 * min_beyond samples).
[[nodiscard]] double tail_quantile(std::size_t n, std::size_t min_beyond = 10);

/// A timing distribution as the benchmark reports it: median, p90, and the
/// highest percentile with at least ten samples beyond it.
struct Timing {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double tail_q = 0.0;  ///< 0 when n < 20 (no percentile qualifies)
  double tail = 0.0;
};
[[nodiscard]] Timing summarize(const std::vector<double>& samples);

/// "tail p95 = 12.3 ms", or a note that no percentile has ten samples
/// beyond it.
[[nodiscard]] std::string tail_note(const Timing& t, const char* unit);

/// A ratio that remembers its base, so it can never be printed without it.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  [[nodiscard]] double value() const { return den == 0.0 ? 0.0 : num / den; }
  /// "num/den", with integral parts printed exactly.
  [[nodiscard]] std::string base() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
  std::string note;         ///< base of a ratio, percentile level, ...
  bool contract = false;    ///< emitted in the final JSON line
};

class Report {
 public:
  /// Records a metric. `contract` metrics are the ones BENCHMARK.json
  /// declares for the current mode; the rest are printed for people.
  void add(std::string name, double value, std::string unit, std::size_t samples,
           std::string note = {}, bool contract = false);
  void add_ratio(std::string name, const Ratio& r, std::size_t samples, bool contract = false);
  /// Records a correctness check; any failed check makes the run incorrect.
  void check(const std::string& what, bool ok, const std::string& detail = {});

  void count_attempt(std::uint64_t n = 1) { attempted_ += n; }
  void count_failure(std::uint64_t n = 1) { failed_ += n; }

  [[nodiscard]] bool correct() const { return failed_checks_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const Metric* find(const std::string& name) const;

  /// One human-readable line per metric and check.
  void print_human(std::FILE* out) const;
  /// The final JSON result line over the contract metrics.
  [[nodiscard]] std::string json_line() const;

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t failed_checks_ = 0;
  std::vector<std::string> check_lines_;
};

/// Formats a double with all the digits needed to read it back.
[[nodiscard]] std::string full_digits(double v);

}  // namespace rtbench
