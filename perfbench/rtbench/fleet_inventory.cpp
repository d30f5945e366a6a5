// fleet_inventory: fleet::run_fleet_campaign on 1000-tag x 4-reader
// corridors with coordinated slots. The only workload for src/fleet and
// src/mac; it touches no waveform code, so PHY changes must leave it
// unchanged.
//
// Campaigns are timed at one worker. At nproc workers a campaign is no
// faster (its five pooled phases are short, so pool start-up and barrier
// waits eat the parallel gain) and its time swings with how many CPUs the
// host grants at that moment; the nproc-worker campaigns still run once
// per run, checked identical to the timed serial ones.
#include <cstdio>

#include "fleet/campaign.h"
#include "mac/goodput.h"
#include "mac/rate_table.h"
#include "rtbench/workloads.h"

namespace rtbench {

namespace {

constexpr std::uint64_t kWorkloadTag = 4;
// Campaign cost depends on the placement (which rates the controllers
// settle on), so a pass runs one campaign on each of several placements
// and a run's figures do not hinge on one draw.
constexpr int kPlacements = 32;

struct State {
  rt::mac::RateTable table = rt::mac::RateTable::paper_default();
  rt::mac::GoodputModel model;
  std::vector<rt::fleet::FleetConfig> configs;
  std::vector<rt::fleet::Deployment> deployments;
};

rt::fleet::Deployment place(const rt::fleet::FleetConfig& c, Tracer* tracer) {
  const Tracer::Scope s(tracer, "fleet.place", -1);
  return rt::fleet::place_fleet(c.deployment, c.seed);
}

std::unique_ptr<State> setup(const RunConfig& cfg) {
  auto st = std::make_unique<State>();
  for (int k = 0; k < (cfg.probe ? 1 : kPlacements); ++k) {
    rt::fleet::FleetConfig c;
    c.deployment.readers = 4;
    c.deployment.tags = 1000;
    c.coordinate_readers = true;
    c.threads = 1;
    c.seed = rt::split_seed(cfg.seed, kWorkloadTag, static_cast<std::uint64_t>(k));
    st->deployments.push_back(place(c, cfg.tracer));
    st->configs.push_back(c);
  }
  return st;
}

}  // namespace

void run_fleet_inventory(const RunConfig& cfg, Report& report) {
  const bool traced = cfg.tracer != nullptr;
  EndToEnd e2e;
  const auto st = repeated_setup(traced ? 1 : kSetupReps, [&] { return setup(cfg); }, e2e.setup_s);
  const std::size_t n = st->configs.size();

  std::vector<rt::fleet::FleetResult> first;
  bool repeat_ok = true;
  std::vector<double> traced_ms;
  const auto pass = [&](Tracer* tracer, std::vector<double>& out) {
    std::vector<rt::fleet::FleetResult> results;
    double pass_s = 0.0;
    std::uint64_t slots = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const auto& c = st->configs[k];
      if (tracer != nullptr) {
        // Placement and scheduling are set-up work; the traced run times
        // them on every step so they get a distribution of their own.
        const auto dep = place(c, tracer);
        repeat_ok = repeat_ok && dep.tags == st->deployments[k].tags;
        const Tracer::Scope s(tracer, "fleet.schedule", -1);
        static_cast<void>(rt::fleet::plan_slot_schedule(dep, c.coordinate_readers));
      }
      const auto c0 = Clock::now();
      {
        const Tracer::Scope s(tracer, "fleet.campaign", static_cast<std::int64_t>(k));
        results.push_back(
            rt::fleet::run_fleet_campaign(st->table, st->model, c, st->deployments[k]));
      }
      pass_s += seconds_since(c0);
      slots += results.back().slots;
    }
    out.push_back(pass_s * 1e3);
    report.count_attempt(slots);
    if (tracer == nullptr) e2e.pass_throughput.push_back(static_cast<double>(slots) / pass_s);
    if (first.empty()) {
      first = std::move(results);
      return;
    }
    for (std::size_t k = 0; k < n; ++k) repeat_ok = repeat_ok && results[k].identical(first[k]);
  };
  run_passes(cfg, pass, e2e.step_ms, traced_ms);
  report.check("fleet_inventory: every campaign equals the first on its placement", repeat_ok);

  bool parallel_ok = true;
  for (std::size_t k = 0; k < n; ++k) {
    auto parallel_cfg = st->configs[k];
    parallel_cfg.threads = cfg.workers;
    parallel_ok = parallel_ok && rt::fleet::run_fleet_campaign(st->table, st->model, parallel_cfg,
                                                               st->deployments[k])
                                     .identical(first[k]);
  }
  char what[96];
  std::snprintf(what, sizeof(what), "fleet_inventory: %u-worker campaigns identical to serial",
                cfg.workers);
  report.check(what, parallel_ok);

  Ratio delivery{0, 0};
  double goodput_kbps = 0.0;
  double colors = 0.0;
  double cross = 0.0;
  double discovery_rounds = 0.0;
  double collision_slots = 0.0;
  double switches = 0.0;
  for (const auto& r : first) {
    delivery.num += static_cast<double>(r.delivered);
    delivery.den += static_cast<double>(r.slots);
    goodput_kbps += r.fleet_goodput_bps / 1000.0 / static_cast<double>(n);
    colors += r.num_colors;
    cross += static_cast<double>(r.cross_collisions);
    discovery_rounds += r.mean_discovery_rounds / static_cast<double>(n);
    for (const auto& reader : r.readers) {
      collision_slots += static_cast<double>(reader.discovery_collision_slots);
      switches += static_cast<double>(reader.rate_switches);
    }
  }
  e2e.delivery = delivery;
  report.add("fleet_slots_per_s", median(e2e.pass_throughput), "slots/s",
             e2e.pass_throughput.size(), "median over passes, 1 worker");
  report.add_ratio("fleet_delivery_ratio", delivery, n);
  report.add("fleet_goodput_kbps", goodput_kbps, "Kbps", n, "simulated, mean over placements");
  add_end_to_end(e2e, !traced && !cfg.probe, "pass over the placements", "slot", report);

  if (traced) {
    add_trace_overhead(e2e.step_ms, traced_ms, report);
    report.add("fleet.colors", colors, "count", n, "summed over placements", true);
    report.add("fleet.cross_collisions", cross, "count", n, "summed over placements", true);
    report.add("fleet.mean_discovery_rounds", discovery_rounds, "count", n,
               "mean over tags and placements", true);
    report.add("fleet.discovery_collision_slots", collision_slots, "count", n,
               "summed over placements", true);
    report.add("mac.rate_switches", switches, "count", n, "summed over placements", true);
  }
}

}  // namespace rtbench
