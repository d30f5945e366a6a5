// sim_sweep: a Fig. 16a-shaped BER sweep through runtime::parallel_sweep at
// nproc workers: a few SNR points at two PHY rates, few packets per point,
// one call per rate. Simulator synthesis and the per-call start-up (fresh
// pool, cold thread-local workspaces) dominate; the stream does nothing.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "rtbench/workloads.h"
#include "runtime/sweep.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"

namespace rtbench {

namespace {

constexpr std::uint64_t kWorkloadTag = 3;
constexpr int kPacketsPerPoint = 2;
constexpr std::size_t kPayloadBytes = 32;

struct RateGrid {
  rt::phy::PhyParams params;
  std::vector<double> snr_db;
};

std::vector<RateGrid> grids() {
  return {{rt::phy::PhyParams::rate_4kbps(), {10.0, 13.0, 16.0, 19.0}},
          {rt::phy::PhyParams::rate_8kbps(), {16.0, 19.0, 22.0, 25.0}}};
}

struct State {
  std::vector<std::vector<rt::runtime::SweepPoint>> calls;  ///< one sweep call per rate
};

std::unique_ptr<State> setup(const RunConfig& cfg) {
  auto st = std::make_unique<State>();
  std::uint64_t rate = 0;
  for (const auto& g : grids()) {
    const auto seed = [&](std::uint64_t a, std::uint64_t b) {
      return rt::split_seed(cfg.seed, kWorkloadTag, (rate << 16) | (a << 8) | b);
    };
    const auto tag = rt::bench::realistic_tag(g.params, seed(0, 0));
    const auto offline = rt::sim::train_offline_model(g.params, tag);
    auto& points = st->calls.emplace_back();
    const std::size_t n = cfg.probe ? 1 : g.snr_db.size();
    for (std::size_t i = 0; i < n; ++i) {
      rt::sim::ChannelConfig ch;
      ch.snr_override_db = g.snr_db[i];
      ch.noise_seed = seed(1, i);
      points.push_back(rt::bench::make_point(g.params, tag, ch, offline, seed(2, i)));
    }
    ++rate;
  }
  return st;
}

rt::runtime::SweepOptions sweep_options(unsigned threads) {
  rt::runtime::SweepOptions so;
  so.packets = kPacketsPerPoint;
  so.payload_bytes = kPayloadBytes;
  so.threads = threads;
  return so;
}

using Stats = std::vector<std::vector<rt::sim::LinkStats>>;  // [call][point]

/// Every packet of every point replayed serially as render_packet_rx then
/// demodulate_into, with one span each. Returns the merged stats.
Stats replay(const State& st, Tracer* tracer, double& render_s, double& rx_s) {
  Stats out;
  rt::sim::PacketWorkspace ws;
  std::int64_t item = 0;
  for (const auto& points : st.calls) {
    auto& stats = out.emplace_back();
    for (const auto& pt : points) {
      const rt::sim::LinkSimulator sim(pt.params, pt.tag, pt.channel, pt.sim);
      rt::phy::DemodOptions dopts;
      dopts.search_limit =
          static_cast<std::size_t>(pt.sim.max_pad_slots + 2) * pt.params.samples_per_slot();
      auto& s = stats.emplace_back();
      for (int p = 0; p < kPacketsPerPoint; ++p, ++item) {
        auto t0 = Clock::now();
        rt::sim::LinkSimulator::RenderedPacket pkt;
        {
          const Tracer::Scope span(tracer, "sim.render", item);
          pkt = sim.render_packet_rx(static_cast<std::uint64_t>(p), kPayloadBytes, ws);
        }
        render_s += seconds_since(t0);
        t0 = Clock::now();
        {
          const Tracer::Scope span(tracer, "phy.demodulate", item);
          sim.demodulator().demodulate_into(ws.rx, pkt.payload_slots, dopts, ws.demod, ws.result);
        }
        rx_s += seconds_since(t0);
        ++s.packets;
        s.total_bits += pkt.payload_bits;
        if (!ws.result.preamble_found) {
          ++s.preamble_failures;
          s.bit_errors += pkt.payload_bits;
          continue;
        }
        for (std::size_t b = 0; b < pkt.payload_bits; ++b)
          s.bit_errors += ws.result.bits[b] != ws.payload[b];
      }
    }
  }
  return out;
}

}  // namespace

void run_sim_sweep(const RunConfig& cfg, Report& report) {
  const bool traced = cfg.tracer != nullptr;
  EndToEnd e2e;
  const auto st = repeated_setup(traced ? 1 : kSetupReps, [&] { return setup(cfg); }, e2e.setup_s);
  const auto so = sweep_options(cfg.workers);

  Stats first;
  std::vector<double> traced_ms;
  bool repeat_ok = true;
  const auto pass = [&](Tracer* tracer, std::vector<double>& out) {
    Stats stats;
    double wall = 0.0;
    int packets = 0;
    for (const auto& points : st->calls) {
      const auto c0 = Clock::now();
      rt::runtime::SweepResult r;
      {
        const Tracer::Scope s(tracer, "runtime.sweep", -1);
        r = rt::runtime::parallel_sweep(points, so);
      }
      wall += seconds_since(c0);
      packets += static_cast<int>(points.size()) * so.packets;
      stats.push_back(std::move(r.stats));
    }
    // The step is the whole grid: the calls of the two rates differ in
    // length, so per-call times would be bimodal.
    out.push_back(wall * 1e3);
    report.count_attempt(static_cast<std::uint64_t>(packets));
    if (first.empty())
      first = stats;
    else
      repeat_ok = repeat_ok && stats == first;
    if (tracer == nullptr) e2e.pass_throughput.push_back(packets / wall);
  };
  run_passes(cfg, pass, e2e.step_ms, traced_ms);
  report.check("sim_sweep: every pass returns the stats of the first", repeat_ok);

  // The determinism contract: the same grid at one worker, bit-identical.
  Stats serial;
  double serial_s = 0.0;
  for (const auto& points : st->calls) {
    const auto r = rt::runtime::parallel_sweep(points, sweep_options(1));
    serial_s += r.wall_s;
    serial.push_back(r.stats);
  }
  char workers[64];
  std::snprintf(workers, sizeof(workers), "%u workers", cfg.workers);
  report.check(std::string("sim_sweep: stats at ") + workers + " equal the 1-worker stats",
               serial == first);

  Ratio ber{0, 0};
  for (const auto& call : first)
    for (const auto& s : call) {
      ber.num += static_cast<double>(s.bit_errors);
      ber.den += static_cast<double>(s.total_bits);
    }
  e2e.delivery = {ber.den - ber.num, ber.den};
  report.add("sweep_packets_per_s", median(e2e.pass_throughput), "pkt/s",
             e2e.pass_throughput.size(), std::string("median over passes, ") + workers);
  report.add_ratio("sweep_ber", ber, static_cast<std::size_t>(ber.den));
  add_end_to_end(e2e, !traced && !cfg.probe, "grid sweep", "packet", report);

  if (traced) {
    add_trace_overhead(e2e.step_ms, traced_ms, report);
    double render_s = 0.0;
    double rx_s = 0.0;
    const Stats replayed = replay(*st, cfg.tracer, render_s, rx_s);
    report.check("sim_sweep: render_packet_rx + demodulate_into replay equals the sweep stats",
                 replayed == first);
    report.add_ratio("sim.rx_share", {rx_s, render_s + rx_s}, 1, true);
    report.add("runtime.sweep_s_1w", serial_s, "s", st->calls.size(), "one pass at 1 worker",
               true);
    // 1-worker wall over (workers x the median nproc-worker grid wall).
    report.add_ratio("runtime.scaling_efficiency",
                     {serial_s, cfg.workers * median(e2e.step_ms) / 1e3}, e2e.step_ms.size(),
                     true);
  }
}

}  // namespace rtbench
