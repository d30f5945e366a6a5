// Tests for the stage-based packet pipeline: workspace reuse must be
// bit-identical to fresh-workspace runs (across packets, simulators and
// channel switches), and the demodulator's oracle-template path must skip
// online training entirely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "phy/training.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"

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

ChannelConfig fast_channel(double snr_db, std::uint64_t noise_seed) {
  ChannelConfig cfg;
  cfg.snr_override_db = snr_db;
  cfg.noise_seed = noise_seed;
  return cfg;
}

void expect_same_outcome(const LinkSimulator::PacketOutcome& a,
                         const LinkSimulator::PacketOutcome& b) {
  EXPECT_EQ(a.preamble_found, b.preamble_found);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.bits, b.bits);
}

TEST(PacketPipeline, WorkspaceReuseMatchesFreshWorkspacePerPacket) {
  const auto p = fast_params();
  const LinkSimulator sim(p, p.tag_config(), fast_channel(12.0, 5), fast_options());
  PacketWorkspace reused;
  for (std::uint64_t i = 0; i < 6; ++i) {
    PacketWorkspace fresh;
    const auto a = sim.run_packet(i, 8, fresh);
    const auto b = sim.run_packet(i, 8, reused);
    expect_same_outcome(a, b);
    EXPECT_EQ(fresh.result.bits, reused.result.bits);
  }
}

TEST(PacketPipeline, DirtyWorkspaceDoesNotLeakAcrossPackets) {
  const auto p = fast_params();
  const LinkSimulator sim(p, p.tag_config(), fast_channel(12.0, 5), fast_options());
  PacketWorkspace ws;
  // Dirty the workspace with a different, larger packet first; replaying
  // packet 0 must still match a clean run exactly.
  (void)sim.run_packet(3, 16, ws);
  const auto dirty = sim.run_packet(0, 8, ws);
  PacketWorkspace clean;
  const auto ref = sim.run_packet(0, 8, clean);
  expect_same_outcome(ref, dirty);
  EXPECT_EQ(clean.result.bits, ws.result.bits);
}

TEST(PacketPipeline, WorkspaceFollowsChannelSwitches) {
  const auto p = fast_params();
  const auto tag = p.tag_config();
  const LinkSimulator sim_a(p, tag, fast_channel(12.0, 5), fast_options());
  const LinkSimulator sim_b(p, tag, fast_channel(7.0, 9), fast_options());
  // One workspace bounced between two simulators must reproduce what each
  // simulator computes alone (the cached realization rebuilds on id
  // mismatch, never reusing the wrong channel's tag state).
  PacketWorkspace shared;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto a_shared = sim_a.run_packet(i, 8, shared);
    const auto b_shared = sim_b.run_packet(i, 8, shared);
    PacketWorkspace own_a;
    PacketWorkspace own_b;
    expect_same_outcome(sim_a.run_packet(i, 8, own_a), a_shared);
    expect_same_outcome(sim_b.run_packet(i, 8, own_b), b_shared);
  }
}

/// One received training field: the rotation-corrected waveform, where its
/// frame starts, and the layout it was sent with.
struct TrainingField {
  phy::FrameLayout layout;
  sig::IqWaveform rx;
  std::size_t start = 0;
};

TrainingField training_field(const LinkSimulator& sim, std::uint64_t idx, std::size_t bytes) {
  PacketWorkspace ws;
  const auto pkt = sim.render_packet_rx(idx, bytes, ws);
  const auto& pre = sim.demodulator().preamble();
  const auto det = pre.detect(ws.rx, 0, ws.demod.preamble);
  EXPECT_TRUE(det.found);
  pre.correct_in_place(ws.rx, det);
  return {phy::FrameLayout::for_params(sim.params(), pkt.payload_slots), std::move(ws.rx),
          det.start_sample};
}

void expect_same_bank(const phy::PulseBank& want, const phy::PulseBank& got, int bits_per_axis) {
  ASSERT_EQ(want.modules(), got.modules());
  ASSERT_EQ(want.entries(), got.entries());
  ASSERT_EQ(want.pulse_len(), got.pulse_len());
  for (int m = 0; m < want.modules(); ++m) {
    for (int key = 0; key < want.entries(); ++key) {
      const auto a = want.pulse(m, static_cast<unsigned>(key));
      const auto b = got.pulse(m, static_cast<unsigned>(key));
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "module " << m << " key " << key;
    }
  }
  ASSERT_EQ(want.has_pixel_gains(), got.has_pixel_gains());
  if (!want.has_pixel_gains()) return;
  for (int m = 0; m < want.modules(); ++m)
    for (int w = 0; w < bits_per_axis; ++w)
      EXPECT_EQ(want.pixel_gain(m, w), got.pixel_gain(m, w)) << "module " << m << " pixel " << w;
}

lcm::TagConfig heterogeneous_tag(const phy::PhyParams& p, std::uint64_t seed) {
  auto tag = p.tag_config();
  tag.heterogeneity = {0.06, 0.04, 0.0};
  tag.seed = seed;
  return tag;
}

TEST(PacketPipeline, TrainingFactorFollowsModelLayoutAndRidgeSwitches) {
  const auto p = fast_params();
  const LinkSimulator sim(p, heterogeneous_tag(p, 3), fast_channel(15.0, 5), fast_options());
  // Two tags with different heterogeneity draws: same dimensions, different
  // values -- the case a key on dimensions alone would get wrong. The third
  // model has b's bases under a's sigma, so bases and sigma each change
  // alone somewhere in the walk.
  const auto model_a = train_offline_model(p, heterogeneous_tag(p, 3));
  const auto model_b = train_offline_model(p, heterogeneous_tag(p, 11));
  ASSERT_EQ(model_a.bases.rows(), model_b.bases.rows());
  ASSERT_EQ(model_a.bases.cols(), model_b.bases.cols());
  ASSERT_FALSE(std::ranges::equal(model_a.bases.data(), model_b.bases.data()));
  auto model_c = model_b;
  model_c.sigma = model_a.sigma;
  const phy::OfflineModel* models[] = {&model_a, &model_b, &model_c};
  // Two payload lengths, plus a longer training field over the same samples
  // (the layout change that reshapes the design itself).
  std::vector<TrainingField> fields = {training_field(sim, 0, 8), training_field(sim, 1, 16)};
  fields.push_back(fields[1]);
  fields[2].layout.training_rounds += 2;
  ASSERT_NE(fields[0].layout, fields[1].layout);
  const double ridges[] = {1e-4, 3e-3};

  // {model, field, ridge}: each step changes one input, so every part of
  // the cache key must invalidate the factor on its own.
  const int walk[][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {0, 2, 1},
                         {0, 2, 0}, {2, 2, 0}, {1, 2, 0}, {1, 1, 0}, {1, 1, 1},
                         {0, 1, 1}, {0, 0, 1}, {0, 0, 0}};
  phy::TrainingWorkspace shared;
  phy::PulseBank bank;
  for (std::size_t step = 0; step < std::size(walk); ++step) {
    const auto& model = *models[walk[step][0]];
    const auto& f = fields[static_cast<std::size_t>(walk[step][1])];
    const double ridge = ridges[walk[step][2]];
    SCOPED_TRACE(::testing::Message() << "step " << step);
    phy::OnlineTrainer::train_into(p, model, f.layout, f.rx, f.start, bank, shared, ridge);
    phy::TrainingWorkspace fresh_ws;
    phy::PulseBank fresh;
    phy::OnlineTrainer::train_into(p, model, f.layout, f.rx, f.start, fresh, fresh_ws, ridge);
    expect_same_bank(fresh, bank, p.bits_per_axis);
  }

  // The key is the model's value, not its address: mutating one model in
  // place must rebuild the factor.
  auto mutated = model_a;
  const auto& f = fields[0];
  phy::OnlineTrainer::train_into(p, mutated, f.layout, f.rx, f.start, bank, shared);
  mutated.bases(mutated.domain() / 2, 0) += 0.25;
  phy::OnlineTrainer::train_into(p, mutated, f.layout, f.rx, f.start, bank, shared);
  phy::TrainingWorkspace bases_ws;
  phy::PulseBank fresh_bases;
  phy::OnlineTrainer::train_into(p, mutated, f.layout, f.rx, f.start, fresh_bases, bases_ws);
  expect_same_bank(fresh_bases, bank, p.bits_per_axis);
  mutated.sigma.back() *= 4.0;
  phy::OnlineTrainer::train_into(p, mutated, f.layout, f.rx, f.start, bank, shared);
  phy::TrainingWorkspace sigma_ws;
  phy::PulseBank fresh_sigma;
  phy::OnlineTrainer::train_into(p, mutated, f.layout, f.rx, f.start, fresh_sigma, sigma_ws);
  expect_same_bank(fresh_sigma, bank, p.bits_per_axis);
}

TEST(PacketPipeline, PixelCalibrationKeepsTrainingFactorAcrossFrames) {
  // Pixel calibration runs its own LS solve after the training solve; it
  // must not clobber the cached training factor.
  auto p = fast_params();
  p.bits_per_axis = 2;
  p.pixel_calibration = true;
  const auto tag = heterogeneous_tag(p, 99);
  const LinkSimulator sim(p, tag, fast_channel(30.0, 7), fast_options());
  const auto& model = sim.demodulator().offline_model();
  phy::TrainingWorkspace shared;
  phy::PulseBank bank;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto f = training_field(sim, i, 8);
    ASSERT_GT(f.layout.pixel_rounds, 0);
    phy::OnlineTrainer::train_into(p, model, f.layout, f.rx, f.start, bank, shared);
    phy::TrainingWorkspace fresh_ws;
    phy::PulseBank fresh;
    phy::OnlineTrainer::train_into(p, model, f.layout, f.rx, f.start, fresh, fresh_ws);
    ASSERT_TRUE(fresh.has_pixel_gains());
    SCOPED_TRACE(::testing::Message() << "frame " << i);
    expect_same_bank(fresh, bank, p.bits_per_axis);
  }
}

TEST(PacketPipeline, OracleTemplatePathMatchesThroughWorkspace) {
  auto p = fast_params();
  auto opts = fast_options();
  opts.oracle_templates = true;
  const LinkSimulator sim(p, p.tag_config(), fast_channel(25.0, 3), opts);
  PacketWorkspace reused;
  for (std::uint64_t i = 0; i < 3; ++i) {
    PacketWorkspace fresh;
    const auto a = sim.run_packet(i, 8, fresh);
    const auto b = sim.run_packet(i, 8, reused);
    expect_same_outcome(a, b);
    EXPECT_EQ(fresh.result.bits, reused.result.bits);
  }
  // At this SNR the oracle receiver should actually decode.
  const auto healthy = sim.run_packet(0, 8, reused);
  ASSERT_TRUE(healthy.preamble_found);
  EXPECT_EQ(healthy.bit_errors, 0u);
}

TEST(PacketPipeline, OracleBankSkipsTrainingStage) {
  // With an oracle bank the training stage must not run: the workspace's
  // training factor is never built, and a reused workspace decodes what a
  // fresh one does.
  const auto p = fast_params();
  const auto tag = p.tag_config();
  const phy::Modulator mod(p);
  phy::ModulatorWorkspace mod_ws;
  phy::PacketSchedule pkt;
  Rng rng(13);
  const auto bits = rng.bits(16);
  mod.modulate_into(bits, mod_ws, pkt);
  Channel ch(p, tag, fast_channel(40.0, 2));
  const auto rx = ch.noiseless_source()(pkt.firings, pkt.duration_s + p.symbol_duration_s());
  const phy::Demodulator demod(p, train_offline_model(p, tag, {0.0}));
  const auto oracle = phy::oracle_bank(p, ch.noiseless_source());
  phy::DemodOptions opts;
  opts.oracle = &oracle;

  phy::DemodWorkspace reused;
  phy::DemodResult got;
  sig::IqWaveform work;
  for (int pass = 0; pass < 2; ++pass) {
    work = rx;
    demod.demodulate_into(work, pkt.layout.payload_slots, opts, reused, got);
    ASSERT_TRUE(got.preamble_found);
    EXPECT_FALSE(reused.training.factor_valid) << "pass " << pass;
  }
  phy::DemodWorkspace fresh;
  phy::DemodResult want;
  work = rx;
  demod.demodulate_into(work, pkt.layout.payload_slots, opts, fresh, want);
  EXPECT_FALSE(fresh.training.factor_valid);
  EXPECT_EQ(want.bits, got.bits);
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(got.bits[i], bits[i]) << i;

  // Without the oracle the same workspace trains, so the flag is live.
  work = rx;
  demod.demodulate_into(work, pkt.layout.payload_slots, phy::DemodOptions{}, reused, got);
  EXPECT_TRUE(reused.training.factor_valid);
}

TEST(PacketPipeline, ModulateIntoReplaysPrefixAcrossPayloads) {
  const auto p = fast_params();
  const phy::Modulator mod(p);
  phy::ModulatorWorkspace ws;
  phy::PacketSchedule reused;
  Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    const auto bits = rng.bits(trial == 2 ? 48 : 16);  // includes a size change
    phy::ModulatorWorkspace fresh_ws;
    phy::PacketSchedule ref;
    mod.modulate_into(bits, fresh_ws, ref);
    mod.modulate_into(bits, ws, reused);
    ASSERT_EQ(ref.firings.size(), reused.firings.size());
    for (std::size_t i = 0; i < ref.firings.size(); ++i) {
      EXPECT_EQ(ref.firings[i].time_s, reused.firings[i].time_s);
      EXPECT_EQ(ref.firings[i].module, reused.firings[i].module);
      EXPECT_EQ(ref.firings[i].level_i, reused.firings[i].level_i);
      EXPECT_EQ(ref.firings[i].level_q, reused.firings[i].level_q);
    }
    ASSERT_EQ(ref.payload_symbols.size(), reused.payload_symbols.size());
    for (std::size_t i = 0; i < ref.payload_symbols.size(); ++i) {
      EXPECT_EQ(ref.payload_symbols[i].level_i, reused.payload_symbols[i].level_i);
      EXPECT_EQ(ref.payload_symbols[i].level_q, reused.payload_symbols[i].level_q);
    }
    EXPECT_EQ(ref.payload_symbol_count, reused.payload_symbol_count);
    EXPECT_EQ(ref.duration_s, reused.duration_s);
  }
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Equalizer, OutputsPinnedAcrossConfigurations) {
  // FNV-1a hashes of the DFE's hard bits and soft LLRs through the whole
  // packet pipeline, one row per receiver shape the equalizer branches on
  // (rate, K, state merging, basic-DSM rest slots, single polarization,
  // pixel gains). The expectations were recorded before the DFE's inner
  // loops were restructured; any change to the arithmetic or to survivor
  // selection moves a hash. They were recorded on both kernel backends,
  // which agree on every row: the AVX2 dfe_score reassociates its sum,
  // but that moves no decision and no float LLR here.
  struct Case {
    const char* name;
    phy::PhyParams params;
    int model;  ///< index into `models`
    bool heterogeneous;
    std::uint64_t bits_hash;
    std::uint64_t llr_hash;
  };
  const auto r8 = phy::PhyParams::rate_8kbps();
  auto r8_merge16 = r8;
  r8_merge16.merge_equalizer_states = true;
  auto r8_merge64 = r8_merge16;
  r8_merge64.equalizer_branches = 64;
  auto r8_k1 = r8;
  r8_k1.equalizer_branches = 1;
  auto r8_basic = r8;
  r8_basic.basic_rest_slots = 3;
  auto r8_no_q = r8;
  r8_no_q.use_q_channel = false;
  auto r8_pixel = r8;
  r8_pixel.pixel_calibration = true;
  const Case cases[] = {
      {"8kbps", r8, 0, false, 0xa5d0cc6a0a65e18eULL, 0xd9fc784826d1ce6fULL},
      {"4kbps", phy::PhyParams::rate_4kbps(), 1, false,
        0x4296e30fe1d1d8eaULL, 0x6c50b46939cc2387ULL},
      {"16kbps", phy::PhyParams::rate_16kbps(), 2, false,
        0x62bf6f5d78942317ULL, 0xdceca684b3c3ea22ULL},
      {"8kbps_merge_k16", r8_merge16, 0, false, 0xa5d0cc6a0a65e18eULL, 0xd9fc784826d1ce6fULL},
      {"8kbps_merge_k64", r8_merge64, 0, false, 0x11b829edd342aa8cULL, 0xd2d1ee34913b0c1eULL},
      {"8kbps_k1", r8_k1, 0, false, 0x6cd99e226cef09f5ULL, 0x0fa5e59f7e303449ULL},
      {"8kbps_basic_dsm", r8_basic, 0, false, 0xdf9ca8dde7df0cf7ULL, 0xca0bd513875d7682ULL},
      {"8kbps_no_q", r8_no_q, 0, false, 0x4296e30fe1d1d8eaULL, 0xe403ee53ad6df080ULL},
      {"8kbps_pixel_calibration", r8_pixel, 0, true, 0xce35c569a0710bc7ULL, 0x5ccfa9157b54222cULL},
  };
  // One offline model per PHY rate, shared by every receiver variant of it.
  const phy::OfflineModel models[] = {
      train_offline_model(r8, r8.tag_config()),
      train_offline_model(phy::PhyParams::rate_4kbps(),
                          phy::PhyParams::rate_4kbps().tag_config()),
      train_offline_model(phy::PhyParams::rate_16kbps(),
                          phy::PhyParams::rate_16kbps().tag_config()),
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto tag = c.params.tag_config();
    if (c.heterogeneous) tag.heterogeneity = {0.06, 0.0, 0.0};
    SimOptions so;
    so.seed = 42;
    so.export_soft_bits = true;
    so.shared_offline_model = models[c.model];
    const LinkSimulator sim(c.params, tag, fast_channel(16.0, 21), so);
    PacketWorkspace ws;
    std::uint64_t bits_hash = 0xcbf29ce484222325ULL;
    std::uint64_t llr_hash = 0xcbf29ce484222325ULL;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto out = sim.run_packet(i, 12, ws);
      ASSERT_TRUE(out.preamble_found) << "packet " << i;
      ASSERT_EQ(ws.result.soft_bits.size(), ws.result.bits.size());
      bits_hash = fnv1a(bits_hash, ws.result.bits.data(), ws.result.bits.size());
      llr_hash = fnv1a(llr_hash, ws.result.soft_bits.data(),
                       ws.result.soft_bits.size() * sizeof(float));
    }
    EXPECT_EQ(bits_hash, c.bits_hash);
    EXPECT_EQ(llr_hash, c.llr_hash);
  }
}

}  // namespace
}  // namespace rt::sim
