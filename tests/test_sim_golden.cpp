// Golden pins of the simulator's output: FNV-1a hashes of the exact sample
// bits the TX -> channel path renders, across the configurations its
// rendering branches on (rate, pixel calibration, mobility + dynamics,
// roll/yaw, start padding), plus the three other waveform products built
// from the same LC synthesis: the channel's noise sigma, the preamble
// reference and the stream builder's gap material. The expectations were
// recorded before the simulator learned to reuse a rendered frame prefix
// and to fill fixed-point stretches; any change to what is rendered moves
// a hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "phy/preamble.h"
#include "phy/training.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"
#include "stream/sim_source.h"

namespace rt::sim {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t hash_samples(std::uint64_t h, const sig::IqWaveform& w) {
  return fnv1a(h, w.samples.data(), w.samples.size() * sizeof(sig::Complex));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

/// One offline model per rate, shared by every configuration of it (the
/// pins cover rendering, which never reads the model).
const phy::OfflineModel& model_for(int rate_kbps) {
  static const phy::OfflineModel m4 = train_offline_model(
      phy::PhyParams::rate_4kbps(), phy::PhyParams::rate_4kbps().tag_config());
  static const phy::OfflineModel m8 = train_offline_model(
      phy::PhyParams::rate_8kbps(), phy::PhyParams::rate_8kbps().tag_config());
  static const phy::OfflineModel m16 = train_offline_model(
      phy::PhyParams::rate_16kbps(), phy::PhyParams::rate_16kbps().tag_config());
  return rate_kbps == 4 ? m4 : rate_kbps == 8 ? m8 : m16;
}

phy::PhyParams params_for(int rate_kbps) {
  return rate_kbps == 4   ? phy::PhyParams::rate_4kbps()
         : rate_kbps == 8 ? phy::PhyParams::rate_8kbps()
                          : phy::PhyParams::rate_16kbps();
}

struct Case {
  const char* name;
  int rate_kbps;
  bool pixel_calibration;
  bool mobile;        ///< three people around LoS plus roll/gain drift
  double roll_deg;
  double yaw_deg;
  int max_pad_slots;
  std::uint64_t render_hash;  ///< render_packet_rx samples + geometry, 6 packets
  std::uint64_t sigma_hash;   ///< Channel::noise_sigma_per_axis() bits
};

struct Built {
  phy::PhyParams params;
  lcm::TagConfig tag;
  ChannelConfig channel;
  SimOptions options;
};

Built build(const Case& c) {
  Built b;
  b.params = params_for(c.rate_kbps);
  b.params.pixel_calibration = c.pixel_calibration;
  b.tag = b.params.tag_config();
  if (c.pixel_calibration) b.tag.heterogeneity = {0.06, 0.0, 0.0};
  b.channel.snr_override_db = 14.0;
  b.channel.noise_seed = 33;
  b.channel.pose.roll_rad = rt::deg_to_rad(c.roll_deg);
  b.channel.pose.yaw_rad = rt::deg_to_rad(c.yaw_deg);
  if (c.mobile) {
    b.channel.mobility = MobilityScenario::three_people_around_los();
    b.channel.dynamics.roll_rate_deg_s = 40.0;
    b.channel.dynamics.gain_drift_per_s = -0.3;
  }
  b.options.seed = 17;
  b.options.max_pad_slots = c.max_pad_slots;
  b.options.shared_offline_model = model_for(c.rate_kbps);
  return b;
}

TEST(SimulatorGolden, RenderedPacketsPinnedAcrossConfigurations) {
  const Case cases[] = {
      {"4kbps", 4, false, false, 0.0, 0.0, 2, 0x09aa4b333989bc0cULL, 0xcf752d0d37b8e57bULL},
      {"8kbps", 8, false, false, 0.0, 0.0, 2, 0x9f61f967bb90a233ULL, 0xcf752d0d37b8e57bULL},
      {"16kbps", 16, false, false, 0.0, 0.0, 2, 0x1752e0acd552c0c8ULL, 0xcf752d0d37b8e57bULL},
      {"8kbps_pixel_calibration", 8, true, false, 0.0, 0.0, 2,
        0x9bc29866dcf0a092ULL, 0x4fe5e5fb51b12b14ULL},
      {"8kbps_mobility_dynamics", 8, false, true, 0.0, 0.0, 2,
        0xd0f2aee21507a623ULL, 0xcf752d0d37b8e57bULL},
      {"8kbps_roll_yaw", 8, false, false, 25.0, 12.0, 2,
        0x2e882a62fcf8cb55ULL, 0x45133ee4e4ee682cULL},
      {"8kbps_no_pad", 8, false, false, 0.0, 0.0, 0, 0xae5d0309b8b39ca5ULL, 0xcf752d0d37b8e57bULL},
      {"4kbps_no_pad_roll", 4, false, false, -40.0, 0.0, 0,
        0x5927776b6d94d780ULL, 0xcf752d0d37b8e57bULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto b = build(c);
    const LinkSimulator sim(b.params, b.tag, b.channel, b.options);
    PacketWorkspace ws;
    std::uint64_t h = kFnvBasis;
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto pkt = sim.render_packet_rx(i, 16, ws);
      h = fnv1a_value(h, static_cast<std::uint64_t>(pkt.pad_samples));
      h = fnv1a_value(h, static_cast<std::uint64_t>(pkt.payload_bits));
      h = fnv1a_value(h, pkt.payload_slots);
      h = hash_samples(h, ws.rx);
    }
    const double sigma = sim.channel().noise_sigma_per_axis();
    const std::uint64_t sigma_hash = fnv1a_value(kFnvBasis, sigma);
    EXPECT_EQ(h, c.render_hash) << hex(h);
    EXPECT_EQ(sigma_hash, c.sigma_hash) << hex(sigma_hash);
  }
}

TEST(SimulatorGolden, PreambleReferencesPinned) {
  const struct {
    int rate_kbps;
    std::uint64_t hash;
  } cases[] = {
      {4, 0x9896b3ed8040d039ULL}, {8, 0xd0e744157705841cULL}, {16, 0x7b7ab7e37565dfd6ULL}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.rate_kbps);
    const phy::PreambleProcessor pre(params_for(c.rate_kbps));
    const auto& ref = pre.reference();
    const std::uint64_t h = fnv1a(kFnvBasis, ref.data(), ref.size() * sizeof(sig::Complex));
    EXPECT_EQ(h, c.hash) << hex(h);
  }
}

TEST(SimulatorGolden, StreamsWithIdleAndGarbageGapsPinned) {
  const struct {
    stream::StreamScenario::Gap gap;
    std::uint64_t hash;
  } cases[] = {{stream::StreamScenario::Gap::kNoise, 0x8f39cd9762942fa6ULL},
               {stream::StreamScenario::Gap::kGarbage, 0x5a92a96e8dbece05ULL}};
  const auto b = build({"8kbps", 8, false, false, 0.0, 0.0, 2, 0, 0});
  const LinkSimulator sim(b.params, b.tag, b.channel, b.options);
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.gap));
    stream::StreamScenario sc;
    sc.packets = 3;
    sc.payload_bytes = 16;
    sc.gap = c.gap;
    sc.gap_slots = 40;
    sc.lead_in_slots = 12;
    sc.tail_slots = 20;
    const auto truth = stream::build_stream(sim, sc);
    std::uint64_t h = hash_samples(kFnvBasis, truth.waveform);
    for (const auto& f : truth.frames) {
      h = fnv1a_value(h, f.start_sample);
      h = fnv1a_value(h, f.packet_offset);
    }
    h = fnv1a(h, truth.payload_bits.data(), truth.payload_bits.size());
    EXPECT_EQ(h, c.hash) << hex(h);
  }
}

}  // namespace
}  // namespace rt::sim
