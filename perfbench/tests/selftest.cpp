// Self-test of the benchmark's own arithmetic: percentile selection,
// self time of nested spans, and ratios printed with their base.
// perfbench/run.py runs it before every benchmark run; exits 1 on failure.
#include <cstdio>
#include <string>
#include <vector>

#include "rtbench/report.h"
#include "rtbench/trace.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

void percentile_selection() {
  using rtbench::tail_quantile;
  // The highest ladder percentile with at least ten samples beyond it.
  expect(tail_quantile(19) == 0.0, "19 samples: no percentile has ten beyond it");
  expect(tail_quantile(20) == 0.50, "20 samples: the median");
  expect(tail_quantile(40) == 0.75, "40 samples: p75");
  expect(tail_quantile(100) == 0.90, "100 samples: p90");
  expect(tail_quantile(199) == 0.90, "199 samples: p95 has only nine beyond");
  expect(tail_quantile(200) == 0.95, "200 samples: p95");
  expect(tail_quantile(1000) == 0.99, "1000 samples: p99");
  expect(tail_quantile(10000) == 0.999, "10000 samples: p99.9");
  expect(rtbench::samples_beyond(100, 0.9) == 10, "p90 of 100 leaves ten beyond");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(rtbench::percentile(v, 0.5) == 50.0, "nearest-rank median of 1..100");
  expect(rtbench::percentile(v, 0.9) == 90.0, "nearest-rank p90 of 1..100");
  const auto t = rtbench::summarize(v);
  expect(t.n == 100 && t.tail_q == 0.90 && t.tail == 90.0, "summary carries count and tail");

  rtbench::Report r;
  r.add("x_ms", t.p50, "ms", t.n);
  expect(r.find("x_ms") != nullptr && r.find("x_ms")->samples == 100,
         "a timing metric records its sample count");
}

void self_time() {
  // root [0,100] with children A [10,40] and B [30,60] (overlapping: their
  // union is covered once), C [90,120] reaching past the root (clipped),
  // and a grandchild G [15,20] under A.
  rtbench::Tracer t;
  const auto root = t.add({"root", 0, 100, -1, -1});
  const auto a = t.add({"a", 10, 40, root, 1});
  t.add({"b", 30, 60, root, 1});
  t.add({"c", 90, 120, root, 1});
  t.add({"g", 15, 20, a, 1});
  const auto self = rtbench::self_times_ns(t.spans());
  expect(self[0] == 100 - 50 - 10, "root: minus the union of its children, clipped");
  expect(self[1] == 30 - 5, "a: minus its grandchild only");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 5, "leaves keep their whole duration");

  rtbench::Report r;
  rtbench::add_layer_metrics(t.spans(), self, "a", r);
  expect(r.find("a_busy_s") != nullptr && r.find("a_busy_s")->value == 25e-9,
         "busy time sums self time");
  expect(r.find("a_calls") != nullptr && r.find("a_calls")->value == 1.0, "call count");
  expect(r.find("a_p50_us") != nullptr && r.find("a_p50_us")->value == 0.03,
         "p50 of the span durations in us");

  // Scoped spans nest in call order.
  rtbench::Tracer live;
  {
    const rtbench::Tracer::Scope outer(&live, "outer", 7);
    const rtbench::Tracer::Scope inner(&live, "inner", 7);
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
             live.spans()[0].parent == -1 && live.spans()[1].item == 7,
         "scopes record parent and item");
  const rtbench::Tracer::Scope untraced(nullptr, "ignored", 0);
}

void ratio_base() {
  const rtbench::Ratio r{36, 40};
  expect(r.base() == "36/40", "integral base printed exactly");
  expect(r.value() == 0.9, "ratio value");
  expect(rtbench::Ratio{1.5, 3}.base() == "1.5/3", "fractional base");
  expect(rtbench::Ratio{0, 0}.value() == 0.0, "empty base reads zero");

  rtbench::Report rep;
  rep.add_ratio("delivery", r, 40, true);
  const auto* m = rep.find("delivery");
  expect(m != nullptr && m->note == "base 36/40" && m->unit == "ratio",
         "the base is printed beside the ratio");
  const std::string json = rep.json_line();
  expect(json == "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": "
                 "{\"delivery\": {\"value\": 0.90000000000000002, \"unit\": \"ratio\"}}}",
         "JSON line holds the contract metrics with all their digits");
  rep.check("always", false);
  expect(!rep.correct(), "a failed check makes the run incorrect");
}

}  // namespace

int main() {
  percentile_selection();
  self_time();
  ratio_base();
  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
