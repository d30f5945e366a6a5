// rtbench: the repository benchmark.
//
//   rtbench --workload <rx_decode|stream_sparse|sim_sweep|fleet_inventory|all>
//           --seed <n> --seconds <s> --trace <0|1> [--spans <file.jsonl>]
//
// Prints the build configuration, every metric with its unit and sample
// count, the correctness checks, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The untraced run
// (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// reports the per-layer metrics from the spans it records around every
// library call. perfbench/run.py builds this binary and runs it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.h"
#include "obs/trace.h"
#include "rtbench/workloads.h"

namespace {

using namespace rtbench;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"rx_decode", run_rx_decode},
    {"stream_sparse", run_stream_sparse},
    {"sim_sweep", run_sim_sweep},
    {"fleet_inventory", run_fleet_inventory},
};

/// Span names reported as per-layer timings (p50, p90, calls, busy).
const std::vector<std::string> kLayerBases = {
    "phy.modulate",       "phy.preamble_detect", "phy.preamble_correct", "phy.train",
    "phy.dfe",            "phy.unmap",           "phy.demodulate",       "coding.encode",
    "coding.decode",      "sim.synthesize",      "sim.render",           "stream.scan_chunk",
    "stream.frame_chunk", "stream.flush",        "runtime.sweep",        "fleet.place",
    "fleet.schedule",     "fleet.campaign",
};

/// The receiver stages replayed under phy.demodulate on rx_decode.
const std::vector<std::string> kDemodStages = {"phy.preamble_detect", "phy.preamble_correct",
                                               "phy.train", "phy.dfe", "phy.unmap"};

struct Traced {
  Tracer tracer;
  Report report;
  std::vector<std::int64_t> self_ns;
};

bool has_span(const Tracer& t, const std::string& name) {
  for (const auto& s : t.spans())
    if (name == s.name) return true;
  return false;
}

/// On rx_decode the stage spans must account for phy.demodulate: their
/// self times cover all but a tenth of its duration.
void check_stage_coverage(const Traced& t, Report& report) {
  double total = 0.0;
  double stages = 0.0;
  const auto& spans = t.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "phy.demodulate") total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    for (const auto& s : kDemodStages)
      if (name == s) stages += static_cast<double>(t.self_ns[i]);
  }
  const Ratio cover{stages / 1e9, total / 1e9};
  report.add_ratio("phy.stage_coverage", cover, 1);
  report.check("rx_decode: stage self times cover phy.demodulate within a tenth",
               total > 0.0 && cover.value() >= 0.9 && cover.value() <= 1.0 + 1e-9,
               "base " + cover.base() + " s");
}

/// Traced run: the chosen workload records spans for half its time after an
/// untraced half; every other workload then runs once at probe size so each
/// per-layer metric has a measured value. A layer's numbers come from the
/// chosen workload whenever it touches that layer.
void run_traced(const Workload& w, const RunConfig& base, Report& report,
                const std::string& spans_path) {
  std::vector<Traced> runs(std::size(kWorkloads));
  std::size_t own = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    RunConfig cfg = base;
    cfg.tracer = &runs[i].tracer;
    if (kWorkloads[i].run == w.run) {
      own = i;
      w.run(cfg, report);
    } else {
      cfg.probe = true;
      kWorkloads[i].run(cfg, runs[i].report);
    }
    runs[i].self_ns = self_times_ns(runs[i].tracer.spans());
  }

  for (const auto& base_name : kLayerBases) {
    std::size_t src = own;
    if (!has_span(runs[own].tracer, base_name))
      for (std::size_t i = 0; i < runs.size(); ++i)
        if (has_span(runs[i].tracer, base_name)) {
          src = i;
          break;
        }
    add_layer_metrics(runs[src].tracer.spans(), runs[src].self_ns, base_name, report,
                      src == own ? "" : " (probe)");
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i == own) continue;
    // Probe counts fill the layers the chosen workload does not touch.
    for (const auto& m : runs[i].report.metrics())
      if (m.contract && report.find(m.name) == nullptr)
        report.add(m.name, m.value, m.unit, m.samples, m.note + " (probe)", true);
    report.check(std::string("probe ") + kWorkloads[i].name + " correct",
                 runs[i].report.correct());
  }
  if (std::string(w.name) == "rx_decode") check_stage_coverage(runs[own], report);

  if (!spans_path.empty()) {
    Tracer all;
    // Spans are written per workload in turn, parents re-based to the file.
    std::int32_t offset = 0;
    for (const auto& r : runs) {
      for (Span s : r.tracer.spans()) {
        if (s.parent >= 0) s.parent += offset;
        static_cast<void>(all.add(s));
      }
      offset = static_cast<std::int32_t>(all.spans().size());
    }
    if (!all.write_jsonl(spans_path))
      std::fprintf(stderr, "rtbench: cannot write spans to %s\n", spans_path.c_str());
    else
      std::printf("spans: %zu written to %s\n", all.spans().size(), spans_path.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: rtbench --workload <rx_decode|stream_sparse|sim_sweep|fleet_inventory|all>"
               " --seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  RunConfig cfg;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") cfg.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--spans") spans_path = val;
    else return usage();
  }
  if (argc % 2 == 0 || workload.empty() || cfg.seconds <= 0.0 || (trace != 0 && trace != 1))
    return usage();

  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  cfg.workers = nproc;
  std::printf("rtbench: workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, trace);
  std::printf("build: kernels=%s obs=%s type=%s nproc=%u workers=%u\n",
              rt::kernels::backend_name(), rt::obs::kEnabled ? "on" : "off", RTBENCH_BUILD_TYPE,
              nproc, cfg.workers);
  if (rt::obs::kEnabled && trace == 0) {
    std::fprintf(stderr,
                 "rtbench: refusing an untraced run of an RT_OBS build: its internal spans "
                 "would be timed as library work\n");
    return 3;
  }

  std::vector<const Workload*> chosen;
  for (const auto& w : kWorkloads)
    if (workload == "all" || workload == w.name) chosen.push_back(&w);
  if (chosen.empty()) return usage();

  Report total;
  for (const Workload* w : chosen) {
    Report report;
    try {
      if (trace == 1) {
        std::string path = spans_path;
        if (!path.empty() && chosen.size() > 1) path += std::string(".") + w->name;
        run_traced(*w, cfg, report, path);
      } else {
        w->run(cfg, report);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rtbench: %s failed: %s\n", w->name, e.what());
      report.count_failure();
      report.check(std::string(w->name) + " ran to completion", false, e.what());
    }
    std::printf("[%s] seed=%llu\n", w->name, static_cast<unsigned long long>(cfg.seed));
    report.print_human(stdout);
    if (chosen.size() == 1) {
      std::printf("%s\n", report.json_line().c_str());
      return 0;
    }
    std::printf("%s %s\n", w->name, report.json_line().c_str());
    total.count_attempt(report.attempted());
    total.count_failure(report.failed());
    if (!report.correct()) total.check(std::string(w->name) + " correct", false);
  }
  std::printf("%s\n", total.json_line().c_str());
  return 0;
}
