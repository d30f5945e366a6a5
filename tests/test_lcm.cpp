// Tests for the liquid-crystal modulator simulator: cell dynamics, modules,
// the tag array and the shift-register control chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "lcm/lc_cell.h"
#include "lcm/module.h"
#include "lcm/pixel.h"
#include "lcm/shift_register.h"
#include "lcm/tag_array.h"

namespace rt::lcm {
namespace {

/// Steps a cell with constant drive, returning time to cross `threshold`.
double time_to_cross(LcCell& cell, bool driven, double threshold, bool rising,
                     double max_t = 20e-3) {
  const double dt = 5e-6;
  for (double t = 0.0; t < max_t; t += dt) {
    const double c = cell.step(driven, dt);
    if (rising ? (c >= threshold) : (c <= threshold)) return t;
  }
  return max_t;
}

TEST(LcCell, ChargesFastRelaxesSlow) {
  // Asymmetric response (Fig. 3): charging finishes in well under 1 ms,
  // discharging takes several milliseconds.
  LcCell cell;
  const double t_charge = time_to_cross(cell, true, 0.95, true);
  EXPECT_LT(t_charge, rt::ms(0.8));
  EXPECT_GT(t_charge, rt::ms(0.2));

  cell.reset(1.0);
  const double t_discharge = time_to_cross(cell, false, 0.05, false);
  EXPECT_GT(t_discharge, rt::ms(2.5));
  EXPECT_LT(t_discharge, rt::ms(5.5));
}

TEST(LcCell, DischargeHasInitialPlateau) {
  // Section 2.2: ~1 ms relatively flat pulse at the start of discharge.
  LcCell cell;
  cell.reset(1.0);
  const double plateau = time_to_cross(cell, false, 0.90, false);
  EXPECT_GT(plateau, rt::ms(0.5));
  EXPECT_LT(plateau, rt::ms(1.8));
}

TEST(LcCell, StepIsSampleRateInvariant) {
  // The same physical interval must give the same state regardless of how
  // it is chopped (substepping correctness).
  LcCell a;
  LcCell b;
  a.reset(1.0);
  b.reset(1.0);
  (void)a.step(false, rt::ms(2.0));
  for (int i = 0; i < 200; ++i) (void)b.step(false, rt::ms(0.01));
  EXPECT_NEAR(a.state(), b.state(), 1e-6);
}

TEST(LcCell, HistoryDependence) {
  // Tail effect (Fig. 11a): a cell that was charged longer discharges
  // differently -- the response depends on previous bits.
  LcCell brief;
  LcCell full;
  (void)brief.step(true, rt::ms(0.3));
  (void)full.step(true, rt::ms(2.0));
  (void)brief.step(false, rt::ms(1.0));
  (void)full.step(false, rt::ms(1.0));
  EXPECT_GT(full.state(), brief.state() + 0.01);
}

TEST(LcCell, StateStaysInUnitInterval) {
  LcCell cell;
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    (void)cell.step(rng.bernoulli(), rt::ms(0.1));
    EXPECT_GE(cell.state(), 0.0);
    EXPECT_LE(cell.state(), 1.0);
  }
}

TEST(LcCell, MemoryStateTracksChargeHistory) {
  // The surface-memory state follows the alignment slowly: long-charged
  // cells hold memory after release, briefly-charged ones barely build it.
  LcCell brief;
  LcCell soaked;
  (void)brief.step(true, rt::ms(0.3));
  (void)soaked.step(true, rt::ms(10.0));
  EXPECT_GT(soaked.memory(), brief.memory() + 0.3);
  // Memory decays after release but persists past the optical discharge.
  (void)soaked.step(false, rt::ms(4.0));
  EXPECT_LT(soaked.state(), 0.1);
  EXPECT_GT(soaked.memory(), 0.2);
}

TEST(LcCell, MemorySpeedsUpRecharge) {
  // The "110" vs "010" mechanism of Fig. 11a: a recently-soaked cell
  // recharges faster than a cold one.
  LcCell cold;
  LcCell warm;
  (void)warm.step(true, rt::ms(8.0));
  (void)warm.step(false, rt::ms(4.0));
  (void)cold.step(false, rt::ms(12.0));
  const double warm_after = warm.step(true, rt::ms(0.3));
  const double cold_after = cold.step(true, rt::ms(0.3));
  EXPECT_GT(warm_after, cold_after + 0.02);
}

TEST(LcCell, RejectsBadInputs) {
  LcCell cell;
  EXPECT_THROW(cell.reset(1.5), PreconditionError);
  EXPECT_THROW((void)cell.step(true, -1.0), PreconditionError);
  EXPECT_THROW(LcCell(LcTimings{-1.0, 1.0, 1.0}), PreconditionError);
}

TEST(Pixel, BipolarContributionOnPolarizerAxis) {
  PixelParams p;
  p.polarizer_angle_rad = 0.0;
  Pixel px(p);
  // Relaxed: -1 on the real axis (90deg polarization -> e^{j180deg}).
  EXPECT_NEAR(std::abs(px.contribution() - Complex(-1.0, 0.0)), 0.0, 1e-12);
  (void)px.step(true, rt::ms(5.0));
  EXPECT_NEAR(std::abs(px.contribution() - Complex(1.0, 0.0)), 0.0, 1e-3);
}

TEST(Pixel, QuadraturePixelIsOrthogonal) {
  PixelParams pi;
  PixelParams pq;
  pq.polarizer_angle_rad = rt::deg_to_rad(45.0);
  Pixel a(pi);
  Pixel b(pq);
  // p_I(t) = j p_Q(t): identical scalar dynamics, orthogonal axes.
  const double dt = rt::ms(0.05);
  for (int i = 0; i < 100; ++i) {
    const auto ci = a.step(true, dt);
    const auto cq = b.step(true, dt);
    EXPECT_NEAR(std::abs(ci * Complex(0, 1) - cq), 0.0, 1e-12);
  }
}

TEST(Module, BinaryWeightedAreasNormalized) {
  Rng rng(1);
  Module m(4, 0.0, {}, rng);
  ASSERT_EQ(m.bits(), 4);
  EXPECT_EQ(m.max_level(), 15);
  // Areas 8:4:2:1 normalized to sum 1.
  double total = 0.0;
  for (const auto& px : m.pixels()) total += px.params().area;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(m.pixels()[0].params().area / m.pixels()[3].params().area, 8.0, 1e-12);
}

TEST(Module, SteadyStateSwingProportionalToLevel) {
  // Drive each level long enough to settle; aggregate real part must be
  // close to 2 * level / 15 - 1 (bipolar normalized PAM).
  for (const int level : {0, 1, 5, 10, 15}) {
    Rng rng(1);
    Module m(4, 0.0, {}, rng);
    m.set_level(level);
    Complex last{};
    for (int i = 0; i < 400; ++i) last = m.step(rt::ms(0.05));  // 20 ms settle
    const double expected = 2.0 * static_cast<double>(level) / 15.0 - 1.0;
    EXPECT_NEAR(last.real(), expected, 0.02) << "level " << level;
    EXPECT_NEAR(last.imag(), 0.0, 1e-9);
  }
}

TEST(Module, HeterogeneityPerturbsGains) {
  Rng rng(42);
  Heterogeneity het;
  het.gain_sigma = 0.05;
  het.angle_sigma_rad = rt::deg_to_rad(2.0);
  Module m(4, 0.0, het, rng);
  bool any_gain_off = false;
  for (const auto& px : m.pixels())
    if (std::abs(px.params().gain - 1.0) > 1e-4) any_gain_off = true;
  EXPECT_TRUE(any_gain_off);
}

TEST(Module, LevelValidation) {
  Rng rng(1);
  Module m(2, 0.0, {}, rng);
  EXPECT_THROW(m.set_level(4), PreconditionError);
  EXPECT_THROW(m.set_level(-1), PreconditionError);
  EXPECT_THROW(Module(0, 0.0, {}, rng), PreconditionError);
}

TEST(TagArray, SinglePulseShape) {
  // One firing of one module: the waveform must rise within ~tau_1 of the
  // firing and return near baseline ~4 ms later (the DSM pulse p(t)).
  TagConfig cfg;
  cfg.dsm_order = 2;
  cfg.bits_per_axis = 1;
  TagArray tag(cfg);
  const std::vector<Firing> schedule = {{rt::ms(1.0), 0, 1, -1}};
  const double fs = 40e3;
  SynthScratch scratch;
  sig::IqWaveform w;
  tag.synthesize_into(schedule, fs, rt::ms(10.0), scratch, w);
  // Baseline: all relaxed pixels. I group: 2 modules * (-1) = -2 real;
  // Q group: 2 modules * (-j) => imag -2.
  EXPECT_NEAR(w[10].real(), -2.0, 0.05);
  EXPECT_NEAR(w[10].imag(), -2.0, 0.05);
  // Peak shortly after firing: fired module swings to +1 => real sum ~0.
  const auto peak_idx = w.index_at(rt::ms(1.0) + cfg.charge_s);
  EXPECT_GT(w[peak_idx].real(), -0.35);
  // Q axis untouched (level_q = -1).
  EXPECT_NEAR(w[peak_idx].imag(), -2.0, 0.05);
  // Recovered by 6 ms after firing.
  const auto tail_idx = w.index_at(rt::ms(7.0));
  EXPECT_NEAR(w[tail_idx].real(), -2.0, 0.1);
}

TEST(TagArray, PulseSuperpositionIsLinear)
{
  // Two modules fired at different times: the rotation-free response (the
  // waveform minus the static bias of the relaxed pixels) equals the sum of
  // the individual responses -- the superposition property DSM relies on
  // (section 4.1).
  TagConfig cfg;
  cfg.dsm_order = 2;
  cfg.bits_per_axis = 1;
  const double fs = 40e3;
  const double dur = rt::ms(12.0);

  const auto both = rotation_free_response(
      cfg, std::vector<Firing>{{rt::ms(1.0), 0, 1, -1}, {rt::ms(2.5), 1, 1, -1}}, fs, dur);
  const auto first =
      rotation_free_response(cfg, std::vector<Firing>{{rt::ms(1.0), 0, 1, -1}}, fs, dur);
  const auto second =
      rotation_free_response(cfg, std::vector<Firing>{{rt::ms(2.5), 1, 1, -1}}, fs, dur);
  ASSERT_EQ(both.size(), static_cast<std::size_t>(std::ceil(dur * fs)));

  for (std::size_t i = 0; i < both.size(); ++i)
    EXPECT_NEAR(std::abs(both[i] - (first[i] + second[i])), 0.0, 1e-9) << i;
}

TEST(TagArray, QuadratureFiringLandsOnImaginaryAxis) {
  TagConfig cfg;
  cfg.dsm_order = 1;
  cfg.bits_per_axis = 1;
  TagArray tag(cfg);
  SynthScratch scratch;
  sig::IqWaveform w;
  tag.synthesize_into(std::vector<Firing>{{rt::ms(0.5), 0, -1, 1}}, 40e3, rt::ms(6.0), scratch,
                      w);
  const auto idx = w.index_at(rt::ms(1.0));
  EXPECT_GT(w[idx].imag(), -0.5);   // Q pixel swung up
  EXPECT_NEAR(w[idx].real(), -1.0, 0.05);  // I pixel untouched
}

TEST(TagArray, EnergyIndependentOfDataRateParameterization) {
  // Section 7.2.2 (power): 4 and 8 Kbps share the same DSM symbol length
  // and thus the same drive energy per unit time. Same schedule of firings
  // with the same levels => same energy regardless of PQAM order mapping.
  TagConfig cfg;
  TagArray tag(cfg);
  std::vector<Firing> schedule;
  for (int n = 0; n < 16; ++n)
    schedule.push_back({static_cast<double>(n) * cfg.slot_s, n % cfg.dsm_order, 3, 3});
  const double e = tag.drive_energy(schedule);
  EXPECT_GT(e, 0.0);
  // Doubling levels-per-axis resolution with the same normalized drive
  // pattern leaves energy unchanged.
  TagConfig cfg2 = cfg;
  cfg2.bits_per_axis = 1;
  TagArray tag2(cfg2);
  std::vector<Firing> schedule2;
  for (int n = 0; n < 16; ++n)
    schedule2.push_back({static_cast<double>(n) * cfg2.slot_s, n % cfg2.dsm_order, 1, 1});
  EXPECT_NEAR(tag2.drive_energy(schedule2), e, 1e-12);
}

TEST(TagArray, ValidatesConfigAndSchedule) {
  TagConfig bad;
  bad.dsm_order = 0;
  EXPECT_THROW(TagArray{bad}, PreconditionError);
  TagConfig cfg;
  TagArray tag(cfg);
  SynthScratch scratch;
  sig::IqWaveform w;
  EXPECT_THROW(tag.synthesize_into(std::vector<Firing>{{0.0, 99, 1, 1}}, 40e3, rt::ms(1.0),
                                   scratch, w),
               PreconditionError);
  // Unsorted schedule rejected.
  EXPECT_THROW(tag.synthesize_into(
                   std::vector<Firing>{{rt::ms(2.0), 0, 1, 1}, {rt::ms(1.0), 1, 1, 1}}, 40e3,
                   rt::ms(5.0), scratch, w),
               PreconditionError);
}

/// The tag layouts the fixed-point premises must hold for: one pixel per
/// module, the 8 Kbps two-pixel layout, and the heterogeneous yawed layout
/// the pixel-calibration experiments run.
std::vector<TagConfig> premise_layouts() {
  TagConfig one_pixel;
  one_pixel.bits_per_axis = 1;
  TagConfig two_pixel;
  TagConfig heterogeneous;
  heterogeneous.heterogeneity = {0.06, 0.0, 0.0};
  heterogeneous.yaw_rad = rt::deg_to_rad(15.0);
  heterogeneous.seed = 9;
  return {one_pixel, two_pixel, heterogeneous};
}

bool bitwise_zero(const std::vector<double>& v) {
  for (const double x : v)
    if (std::signbit(x) || x != 0.0) return false;
  return true;
}

bool bitwise_equal(sig::Complex a, sig::Complex b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(TagArray, ResetTagStaysAtZeroUnderZeroDrive) {
  // Released at c = s = 0, one integration step of every pixel lands back
  // on +0.0 exactly, so an idle tag never leaves the reset state. The
  // one-sample renders below are plain kernel steps (a one-sample stretch
  // has nothing to fill), so this checks the premise directly; the long
  // renders check it through the fixed-point fill.
  const double fs = 40e3;
  for (const auto& cfg : premise_layouts()) {
    TagArray tag(cfg);
    SynthScratch scratch;
    SynthPrefix step;
    for (int i = 0; i < 300; ++i) {
      tag.render_prefix({}, fs, 1, scratch, step);
      ASSERT_TRUE(bitwise_zero(step.end.drive) && bitwise_zero(step.end.c) &&
                  bitwise_zero(step.end.s))
          << "sample " << i;
    }
    for (const std::size_t n : {1UL, 2UL, 20UL, 127UL, 128UL, 129UL, 1000UL, 80000UL}) {
      tag.reset();
      SynthPrefix run;
      tag.render_prefix({}, fs, n, scratch, run);
      EXPECT_TRUE(bitwise_zero(run.start.c) && bitwise_zero(run.start.s)) << n;
      EXPECT_TRUE(bitwise_zero(run.end.drive) && bitwise_zero(run.end.c) &&
                  bitwise_zero(run.end.s))
          << n;
    }
  }
}

TEST(TagArray, IdleRenderRepeatsItsFirstSample) {
  // An idle render of N samples is N copies of its first sample, and
  // equals stepping the idle tag one sample at a time.
  const double fs = 40e3;
  const std::size_t n = 3000;
  for (const auto& cfg : premise_layouts()) {
    TagArray tag(cfg);
    SynthScratch scratch;
    sig::IqWaveform whole;
    tag.synthesize_into({}, fs, static_cast<double>(n) / fs, scratch, whole);
    ASSERT_EQ(whole.size(), n);
    tag.reset();
    sig::IqWaveform one;
    for (std::size_t i = 0; i < n; ++i) {
      tag.synthesize_into({}, fs, 1.0 / fs, scratch, one);
      ASSERT_EQ(one.size(), 1U);
      ASSERT_TRUE(bitwise_equal(whole[i], one[0])) << "sample " << i;
      ASSERT_TRUE(bitwise_equal(whole[i], whole[0])) << "sample " << i;
    }
  }
}

TEST(TagArray, ProbedRenderMatchesSteppingThroughPulses) {
  // Fired pixels charge and relax through long constant-drive stretches
  // (the relaxation only reaches a bitwise fixed point seconds later, in
  // denormals): every stretch's probe step plus the rest of its run must
  // equal stepping each sample on its own.
  const double fs = 40e3;
  const std::vector<Firing> schedule = {{rt::ms(1.0), 0, 3, 3}, {rt::ms(1.5), 1, 1, 2}};
  const std::size_t n = 2000;
  for (const auto& cfg : premise_layouts()) {
    TagArray tag(cfg);
    SynthScratch scratch;
    sig::IqWaveform whole;
    const double dur = static_cast<double>(n) / fs;
    auto clamped = schedule;
    for (auto& f : clamped) {
      f.level_i = std::min(f.level_i, cfg.levels_per_axis() - 1);
      f.level_q = std::min(f.level_q, cfg.levels_per_axis() - 1);
    }
    tag.synthesize_into(clamped, fs, dur, scratch, whole);
    // Reference: each sample its own one-sample render, events applied by
    // splitting the schedule at the sample they land on.
    tag.reset();
    sig::IqWaveform one;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Firing> now;
      for (const auto& f : clamped) {
        // A firing's set event, and its release (a level-0 set), land on
        // local sample 0 of this one-sample render when they land on i.
        if (static_cast<std::size_t>(std::llround(f.time_s * fs)) == i)
          now.push_back({0.0, f.module, f.level_i, f.level_q});
        if (static_cast<std::size_t>(std::llround((f.time_s + cfg.charge_s) * fs)) == i)
          now.push_back({0.0, f.module, f.level_i < 0 ? -1 : 0, f.level_q < 0 ? -1 : 0});
      }
      tag.synthesize_into(now, fs, 1.0 / fs, scratch, one);
      ASSERT_TRUE(bitwise_equal(whole[i], one[0])) << "sample " << i;
    }
  }
}

TEST(TagArray, SpliceToleratesReorderingOnlyAcrossDistinctLanes) {
  // Two events on one sample: module 0's release and a new firing. The
  // prefix applies them release-first; the packets nudge the new firing
  // just before the release (same sample), which applies it first.
  TagConfig cfg;
  cfg.dsm_order = 2;
  cfg.bits_per_axis = 1;
  cfg.slot_s = rt::ms(0.5);
  cfg.charge_s = rt::ms(0.5);
  const double fs = 40e3;
  const double nudge = 1e-9;  // far below half a sample
  TagArray tag(cfg);
  SynthScratch scratch;
  const auto check = [&](int second_module, bool expect_splice) {
    const std::vector<Firing> prefix_firings = {{0.0, 0, 1, -1},
                                                {rt::ms(0.5), second_module, 1, -1}};
    SynthPrefix prefix;
    tag.reset();
    tag.render_prefix(prefix_firings, fs, 60, scratch, prefix);
    for (const double pad : {0.0, rt::ms(0.5)}) {
      const std::vector<Firing> packet = {{pad, 0, 1, -1},
                                          {pad + rt::ms(0.5) - nudge, second_module, 1, -1},
                                          {pad + rt::ms(1.5), 1, 1, -1}};
      sig::IqWaveform tried;
      sig::IqWaveform full;
      tag.reset();
      EXPECT_EQ(tag.synthesize_into(packet, fs, rt::ms(4.0), scratch, tried, &prefix),
                expect_splice);
      tag.reset();
      tag.synthesize_into(packet, fs, rt::ms(4.0), scratch, full);
      ASSERT_EQ(tried.size(), full.size());
      EXPECT_EQ(std::memcmp(tried.samples.data(), full.samples.data(),
                            full.size() * sizeof(sig::Complex)),
                0);
    }
  };
  check(1, true);   // distinct lanes: either order gives one drive state
  check(0, false);  // one lane: the order decides the drive, so render in full
}

TEST(ShiftRegister, ClockAndLatchSemantics) {
  ShiftRegisterChain chain(1);
  chain.clock_in(true);
  chain.clock_in(false);
  chain.clock_in(true);
  // Nothing on the outputs until RCLK.
  for (const auto o : chain.outputs()) EXPECT_EQ(o, 0);
  chain.latch();
  // Last bit clocked sits at output 0.
  EXPECT_EQ(chain.outputs()[0], 1);
  EXPECT_EQ(chain.outputs()[1], 0);
  EXPECT_EQ(chain.outputs()[2], 1);
}

TEST(ShiftRegister, ClearShiftKeepsLatches) {
  ShiftRegisterChain chain(1);
  std::vector<std::uint8_t> frame(8, 1);
  chain.spi_write(frame);
  chain.clear_shift();
  for (const auto o : chain.outputs()) EXPECT_EQ(o, 1);  // latches survive SRCLR
  chain.latch();
  for (const auto o : chain.outputs()) EXPECT_EQ(o, 0);  // now the cleared shift reg
}

TEST(ShiftRegister, DaisyChainSpiFrameDrivesPixelsInOrder) {
  // 64 outputs = 8 registers, as in the prototype (4 LCMs x 16 pixels).
  ShiftRegisterChain chain(8);
  const std::vector<int> levels = {0x8, 0x4, 0x2, 0x1, 0xF, 0x0, 0xA, 0x5,
                                   0x3, 0xC, 0x6, 0x9, 0x7, 0xE, 0xB, 0xD};
  const auto frame = levels_to_spi_frame(levels, 4);
  ASSERT_EQ(frame.size(), 64u);
  chain.spi_write(frame);
  // Output block i must equal the binary decomposition of levels[i],
  // LSB-first within the block.
  for (std::size_t m = 0; m < levels.size(); ++m)
    for (int b = 0; b < 4; ++b)
      EXPECT_EQ(chain.outputs()[m * 4 + static_cast<std::size_t>(b)], (levels[m] >> b) & 1)
          << "module " << m << " bit " << b;
}

TEST(ShiftRegister, SpiFrameSizeValidation) {
  ShiftRegisterChain chain(2);
  const std::vector<std::uint8_t> wrong(8, 0);
  EXPECT_THROW(chain.spi_write(wrong), PreconditionError);
  EXPECT_THROW((void)levels_to_spi_frame(std::vector<int>{16}, 4), PreconditionError);
}

}  // namespace
}  // namespace rt::lcm
