// Tests for the end-to-end simulator: channel calibration, link stats,
// mobility scenarios and trace IO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/channel.h"
#include "sim/link_sim.h"
#include "sim/mobility.h"
#include "sim/packet_workspace.h"
#include "sim/trace.h"

namespace rt::sim {
namespace {

phy::PhyParams fast_params() {
  phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

SimOptions fast_options() {
  SimOptions o;
  o.offline_yaws_deg = {0.0};
  return o;
}

TEST(ChannelConfigTest, SnrFollowsLinkBudgetAndYaw) {
  ChannelConfig cfg;
  cfg.pose.distance_m = 7.5;
  EXPECT_NEAR(cfg.snr_db(), 28.0, 1e-9);
  cfg.pose.yaw_rad = rt::deg_to_rad(45.0);
  EXPECT_LT(cfg.snr_db(), 28.0 - 2.5);
  cfg.snr_override_db = 50.0;
  EXPECT_DOUBLE_EQ(cfg.snr_db(), 50.0);
}

TEST(ChannelTest, NoiseSigmaRealizesTargetSnr) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 20.0;
  cfg.ambient.illuminance_lux = 0.0;  // isolate the AWGN term
  Channel ch(p, p.tag_config(), cfg);
  // Check sigma against the definition: P_ref / (2 sigma^2) = SNR.
  const double snr_lin = ch.reference_signal_power() /
                         (2.0 * ch.noise_sigma_per_axis() * ch.noise_sigma_per_axis());
  EXPECT_NEAR(rt::to_db(snr_lin), 20.0, 1e-9);
}

TEST(ChannelTest, NoiselessSourceIsDeterministic) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.pose.roll_rad = rt::deg_to_rad(30.0);
  Channel ch(p, p.tag_config(), cfg);
  const auto src = ch.noiseless_source();
  const auto a = src({}, rt::ms(8.0));
  const auto b = src({}, rt::ms(8.0));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ChannelTest, NoisySourceDrawsFreshNoisePerPacket) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 20.0;
  Channel ch(p, p.tag_config(), cfg);
  Rng noise(cfg.noise_seed);
  auto src = ch.source_with(noise);
  const auto a = src({}, rt::ms(4.0));
  const auto b = src({}, rt::ms(4.0));
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff = any_diff || (a[i] != b[i]);
  EXPECT_TRUE(any_diff);
}

TEST(Mobility, ScenariosPerturbGainMildly) {
  for (const auto& sc :
       {MobilityScenario::none(), MobilityScenario::walk_10cm_off_los(),
        MobilityScenario::walk_behind_tag(), MobilityScenario::work_5cm_off_los(),
        MobilityScenario::three_people_around_los()}) {
    for (double t = 0.0; t < 2.0; t += 0.01) {
      EXPECT_GT(sc.gain(t), 0.95) << sc.name;
      EXPECT_LT(sc.gain(t), 1.05) << sc.name;
    }
  }
  EXPECT_DOUBLE_EQ(MobilityScenario::none().gain(1.23), 1.0);
}

TEST(LinkSim, HighSnrLinkIsReliable) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 45.0;
  LinkSimulator sim(p, p.tag_config(), cfg, fast_options());
  const auto stats = sim.run(3, 16);
  EXPECT_EQ(stats.preamble_failures, 0);
  EXPECT_EQ(stats.bit_errors, 0u);
  EXPECT_EQ(stats.total_bits, 3u * 16u * 8u);
}

TEST(LinkSim, LowSnrLinkDegrades) {
  const auto p = fast_params();
  ChannelConfig hi;
  hi.snr_override_db = 45.0;
  ChannelConfig lo;
  lo.snr_override_db = 3.0;
  LinkSimulator sim_hi(p, p.tag_config(), hi, fast_options());
  LinkSimulator sim_lo(p, p.tag_config(), lo, fast_options());
  const auto s_hi = sim_hi.run(3, 16);
  const auto s_lo = sim_lo.run(3, 16);
  EXPECT_GT(s_lo.ber(), s_hi.ber());
  EXPECT_GT(s_lo.ber(), 0.01);
}

TEST(LinkSim, OracleTemplatesAtLeastAsGoodAsOnlineTraining) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 14.0;
  auto tag = p.tag_config();
  tag.heterogeneity = {0.05, 0.03, rt::deg_to_rad(1.0)};
  auto opt_online = fast_options();
  auto opt_oracle = fast_options();
  opt_oracle.oracle_templates = true;
  LinkSimulator online(p, tag, cfg, opt_online);
  LinkSimulator oracle(p, tag, cfg, opt_oracle);
  const auto s_online = online.run(4, 16);
  const auto s_oracle = oracle.run(4, 16);
  EXPECT_LE(s_oracle.ber(), s_online.ber() + 0.05);
}

TEST(LinkSim, RollDoesNotBreakTheLink) {
  // Fig. 16b: PQAM + preamble correction make roll nearly free.
  const auto p = fast_params();
  for (const double roll_deg : {0.0, 45.0, 90.0, 135.0}) {
    ChannelConfig cfg;
    cfg.snr_override_db = 35.0;
    cfg.pose.roll_rad = rt::deg_to_rad(roll_deg);
    LinkSimulator sim(p, p.tag_config(), cfg, fast_options());
    const auto stats = sim.run(2, 16);
    EXPECT_EQ(stats.bit_errors, 0u) << "roll " << roll_deg;
  }
}

/// A packet schedule and the frame prefix a LinkSimulator would cache
/// for it: the prefix firings rendered on a reset tag up to the sample of
/// the first payload firing.
struct PrefixFixture {
  phy::PhyParams params;
  lcm::TagConfig tag_cfg;
  phy::PacketSchedule sched;
  std::size_t prefix_firings = 0;
  lcm::SynthPrefix prefix;

  PrefixFixture(const phy::PhyParams& p, const lcm::TagConfig& tag_config)
      : params(p), tag_cfg(tag_config) {
    const phy::Modulator mod(p);
    phy::ModulatorWorkspace mws;
    std::vector<std::uint8_t> bits(96);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (i * 7 + 3) % 5 < 2 ? 1 : 0;
    mod.modulate_into(bits, mws, sched);
    prefix_firings = mws.prefix.size();
    const double fs = p.sample_rate_hz;
    const auto first_payload =
        static_cast<std::size_t>(std::llround(sched.firings[prefix_firings].time_s * fs));
    lcm::TagArray tag(tag_cfg);
    lcm::SynthScratch scratch;
    tag.render_prefix(mws.prefix, fs, first_payload, scratch, prefix);
  }

  /// The packet's firings delayed by `pad_slots` slots, as run_packet pads.
  [[nodiscard]] std::vector<lcm::Firing> padded(int pad_slots) const {
    auto firings = sched.firings;
    for (auto& f : firings) f.time_s += pad_slots * params.slot_s;
    return firings;
  }

  [[nodiscard]] double duration(int pad_slots) const {
    return pad_slots * params.slot_s + sched.duration_s + params.symbol_duration_s();
  }
};

bool same_bits(const sig::IqWaveform& a, const sig::IqWaveform& b) {
  return a.size() == b.size() &&
         std::memcmp(a.samples.data(), b.samples.data(), a.size() * sizeof(sig::Complex)) == 0;
}

std::vector<std::pair<const char*, PrefixFixture>> prefix_fixtures() {
  std::vector<std::pair<const char*, PrefixFixture>> out;
  for (const auto& [name, p] : {std::pair{"1kbps", phy::PhyParams::rate_1kbps()},
                                std::pair{"4kbps", phy::PhyParams::rate_4kbps()},
                                std::pair{"8kbps", phy::PhyParams::rate_8kbps()},
                                std::pair{"16kbps", phy::PhyParams::rate_16kbps()},
                                std::pair{"32kbps", phy::PhyParams::rate_32kbps()}})
    out.emplace_back(name, PrefixFixture(p, p.tag_config()));
  auto pixel = phy::PhyParams::rate_8kbps();
  pixel.pixel_calibration = true;
  auto het = pixel.tag_config();
  het.heterogeneity = {0.06, 0.0, 0.0};
  het.yaw_rad = rt::deg_to_rad(12.0);
  out.emplace_back("8kbps_pixel_calibration", PrefixFixture(pixel, het));
  return out;
}

TEST(FramePrefix, SplicedRenderEqualsFullRenderAtEveryPad) {
  // Every rate's pads in [0, max_pad_slots] land the prefix events on the
  // cached sample grid, so every packet splices -- and the spliced render
  // is bit-identical to integrating the whole frame.
  const int max_pad = SimOptions{}.max_pad_slots;
  for (const auto& [name, fx] : prefix_fixtures()) {
    SCOPED_TRACE(name);
    lcm::TagArray tag(fx.tag_cfg);
    lcm::SynthScratch scratch;
    for (int pad = 0; pad <= max_pad; ++pad) {
      SCOPED_TRACE(pad);
      const auto firings = fx.padded(pad);
      sig::IqWaveform full;
      sig::IqWaveform spliced;
      tag.reset();
      EXPECT_FALSE(tag.synthesize_into(firings, fx.params.sample_rate_hz, fx.duration(pad),
                                       scratch, full));
      tag.reset();
      EXPECT_TRUE(tag.synthesize_into(firings, fx.params.sample_rate_hz, fx.duration(pad),
                                      scratch, spliced, &fx.prefix));
      EXPECT_TRUE(same_bits(full, spliced));
    }
  }
}

TEST(FramePrefix, MismatchedScheduleOrStateRendersInFull) {
  const auto fixtures = prefix_fixtures();
  const auto& fx = fixtures[2].second;  // 8 Kbps
  const double fs = fx.params.sample_rate_hz;
  const double dur = fx.duration(1);
  lcm::TagArray tag(fx.tag_cfg);
  lcm::SynthScratch scratch;
  // `tried` splices with `fx.prefix` where allowed, `twin` never does;
  // both start from the same state (reset, or mid-discharge).
  const auto expect_full_render = [&](const std::vector<lcm::Firing>& firings, double rate,
                                      bool reset) {
    lcm::TagArray twin(fx.tag_cfg);
    tag.reset();
    if (!reset) {
      const std::vector<lcm::Firing> warm = {{0.0, 0, 1, 1}};
      sig::IqWaveform w;
      tag.synthesize_into(warm, rate, rt::ms(1.0), scratch, w);
      twin.synthesize_into(warm, rate, rt::ms(1.0), scratch, w);
    }
    sig::IqWaveform tried;
    sig::IqWaveform full;
    EXPECT_FALSE(tag.synthesize_into(firings, rate, dur, scratch, tried, &fx.prefix));
    twin.synthesize_into(firings, rate, dur, scratch, full);
    EXPECT_TRUE(same_bits(full, tried));
  };
  {
    SCOPED_TRACE("one prefix firing one sample late");
    auto firings = fx.padded(1);
    firings[3].time_s += 1.0 / fs;
    expect_full_render(firings, fs, true);
  }
  {
    SCOPED_TRACE("a payload firing inside the prefix span");
    auto firings = fx.padded(1);
    firings[fx.prefix_firings].time_s -= fx.params.slot_s;
    expect_full_render(firings, fs, true);
  }
  {
    SCOPED_TRACE("a prefix firing with another level");
    auto firings = fx.padded(1);
    firings[5].level_i = firings[5].level_i == 0 ? 1 : 0;
    expect_full_render(firings, fs, true);
  }
  {
    SCOPED_TRACE("tag not in the prefix's start state");
    expect_full_render(fx.padded(1), fs, false);
  }
  {
    SCOPED_TRACE("another sample rate");
    expect_full_render(fx.padded(1), 2.0 * fs, true);
  }
}

TEST(LinkSim, ConcurrentPacketsShareOneFramePrefix) {
  // One simulator's cached frame prefix read by several threads at once:
  // every packet equals its serial render.
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 15.0;
  const LinkSimulator sim(p, p.tag_config(), cfg, fast_options());
  constexpr int kThreads = 4;
  constexpr int kPackets = 3;
  std::vector<sig::IqWaveform> serial(kThreads * kPackets);
  {
    PacketWorkspace ws;
    for (int i = 0; i < kThreads * kPackets; ++i) {
      (void)sim.render_packet_rx(static_cast<std::uint64_t>(i), 8, ws);
      serial[static_cast<std::size_t>(i)] = ws.rx;
    }
  }
  std::vector<sig::IqWaveform> parallel(kThreads * kPackets);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PacketWorkspace ws;
      for (int k = 0; k < kPackets; ++k) {
        const int i = k * kThreads + t;
        (void)sim.render_packet_rx(static_cast<std::uint64_t>(i), 8, ws);
        parallel[static_cast<std::size_t>(i)] = ws.rx;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads * kPackets; ++i)
    EXPECT_TRUE(same_bits(serial[static_cast<std::size_t>(i)],
                          parallel[static_cast<std::size_t>(i)]))
        << "packet " << i;
}

TEST(LinkStatsTest, BerAccounting) {
  LinkStats s;
  s.packets = 2;
  s.preamble_failures = 1;
  s.bit_errors = 10;
  s.total_bits = 100;
  EXPECT_DOUBLE_EQ(s.ber(), 0.1);
  EXPECT_DOUBLE_EQ(s.packet_loss(), 0.5);
  EXPECT_DOUBLE_EQ(LinkStats{}.ber(), 0.0);
}

TEST(Trace, CsvRoundTrip) {
  sig::IqWaveform w(40e3, 25);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = {static_cast<double>(i) * 0.1, -static_cast<double>(i) * 0.2};
  const std::string path = "/tmp/rt_trace_test.csv";
  write_trace_csv(path, w);
  const auto r = read_trace_csv(path);
  ASSERT_EQ(r.size(), w.size());
  EXPECT_DOUBLE_EQ(r.sample_rate_hz, 40e3);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(r[i].real(), w[i].real(), 1e-9);
    EXPECT_NEAR(r[i].imag(), w[i].imag(), 1e-9);
  }
  std::remove(path.c_str());
}

TEST(Trace, RejectsMalformedFiles) {
  const std::string path = "/tmp/rt_trace_bad.csv";
  {
    std::ofstream f(path);
    f << "not a trace\n";
  }
  EXPECT_THROW((void)read_trace_csv(path), RuntimeError);
  EXPECT_THROW((void)read_trace_csv("/tmp/definitely_missing_trace.csv"), RuntimeError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rt::sim
