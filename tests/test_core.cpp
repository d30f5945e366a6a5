// Tests for the retroturbo:: public facade.
#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"
#include "core/retroturbo.h"

namespace retroturbo {
namespace {

/// Fast facade config for tests: low rate preset overridden with the small
/// test PHY, short preamble, good SNR.
LinkConfig fast_config() {
  LinkConfig cfg;
  rt::phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  cfg.custom_phy = p;
  cfg.snr_override_db = 35.0;
  return cfg;
}

TEST(Facade, VersionAndPresets) {
  EXPECT_FALSE(version().empty());
  EXPECT_NEAR(phy_params_for(RatePreset::k8kbps).data_rate_bps(), 8000.0, 1e-9);
  EXPECT_NEAR(phy_params_for(RatePreset::k32kbps).data_rate_bps(), 32000.0, 1e-9);
  EXPECT_NEAR(phy_params_for(RatePreset::k1kbps).data_rate_bps(), 1000.0, 1e-9);
}

TEST(Facade, SendBytesRoundTrip) {
  Link link(fast_config());
  rt::Rng rng(5);
  const auto payload = rng.bytes(24);
  const auto r = link.send_bytes(payload);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.received, payload);
  EXPECT_EQ(r.attempts, 1);
}

TEST(Facade, CodedLinkConfig) {
  auto cfg = fast_config();
  cfg.code = rt::coding::CodeDescriptor::reed_solomon(15, 11);
  cfg.snr_override_db = 30.0;
  Link link(cfg);
  rt::Rng rng(6);
  const auto payload = rng.bytes(16);
  const auto r = link.send_bytes(payload);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.received, payload);
}

TEST(Facade, DeliversFrameOverRealPhy) {
  auto cfg = fast_config();
  cfg.code = rt::coding::CodeDescriptor::reed_solomon(15, 11);
  cfg.snr_override_db = 40.0;
  cfg.max_retransmissions = 2;
  Link link(cfg);
  rt::Rng rng(9);
  const auto payload = rng.bytes(20);
  const auto r = link.send_bytes(payload);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.received, payload);
  // Payload bits over bits on air: 20 bytes + CRC fill two RS(15, 11)
  // codewords, so the frame stays efficient.
  const rt::coding::CodedFrameCodec codec({.code = cfg.code});
  const std::size_t payload_bits = payload.size() * 8;
  EXPECT_GT(static_cast<double>(payload_bits) /
                static_cast<double>(r.attempts * codec.coded_bits(payload_bits)),
            0.3);
}

TEST(Facade, CodedLinkSurvivesNoiseUncodedFails) {
  // Four single-attempt frames through an RS(63, 39) link and an uncoded
  // one. Same seed, so both links meet the same channel attempt by attempt.
  const auto delivered = [](double snr_db) {
    auto cfg = fast_config();
    cfg.snr_override_db = snr_db;
    cfg.max_retransmissions = 0;
    Link raw(cfg);
    cfg.code = rt::coding::CodeDescriptor::reed_solomon(63, 39);
    Link coded(cfg);
    rt::Rng rng(11);
    std::pair<int, int> ok{0, 0};  // {coded, raw}
    for (int i = 0; i < 4; ++i) {
      const auto payload = rng.bytes(24);
      ok.first += coded.send_bytes(payload).delivered ? 1 : 0;
      ok.second += raw.send_bytes(payload).delivered ? 1 : 0;
    }
    return ok;
  };
  // 10 dB: a few raw bit errors per frame at most.
  const auto [coded_10, raw_10] = delivered(10.0);
  EXPECT_GE(coded_10, raw_10);
  EXPECT_GE(coded_10, 3);
  // 8 dB: raw errors in most frames; the CRC rejects the uncoded ones.
  const auto [coded_8, raw_8] = delivered(8.0);
  EXPECT_GT(coded_8, raw_8);
  EXPECT_GE(coded_8, 3);
}

TEST(Facade, NoRetransmissionMeansOneAttempt) {
  auto cfg = fast_config();
  cfg.snr_override_db = -10.0;  // hopeless: every attempt fails
  cfg.max_retransmissions = 0;
  Link link(cfg);
  const auto r = link.send_bytes(rt::Rng(7).bytes(8));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_TRUE(r.received.empty());
}

TEST(Facade, RetransmissionsBoundAttempts) {
  auto cfg = fast_config();
  cfg.snr_override_db = -10.0;
  cfg.max_retransmissions = 2;
  Link link(cfg);
  const auto r = link.send_bytes(rt::Rng(8).bytes(8));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_TRUE(r.received.empty());
}

TEST(Facade, RejectsNegativeRetransmissionsAndEmptyPayloads) {
  auto cfg = fast_config();
  cfg.max_retransmissions = -1;
  EXPECT_THROW(Link{cfg}, rt::PreconditionError);
  Link link(fast_config());
  EXPECT_THROW((void)link.send_bytes({}), rt::PreconditionError);
}

TEST(Facade, SendDependsOnPacketIndexNotOnEarlierPayloads) {
  // Two links of one config send first frames of different lengths, then
  // the same frame: attempt 1 of both meets the same padding and noise.
  auto cfg = fast_config();
  cfg.snr_override_db = 9.0;
  cfg.max_retransmissions = 0;
  Link a(cfg);
  Link b(cfg);
  rt::Rng rng(12);
  (void)a.send_bytes(rng.bytes(8));
  (void)b.send_bytes(rng.bytes(40));
  const auto payload = rng.bytes(24);
  const auto ra = a.send_bytes(payload);
  const auto rb = b.send_bytes(payload);
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_EQ(ra.attempts, rb.attempts);
  EXPECT_EQ(ra.received, rb.received);
}

TEST(Facade, MeasureBerReportsStats) {
  Link link(fast_config());
  const auto stats = link.measure_ber(2, 8);
  EXPECT_EQ(stats.packets, 2);
  EXPECT_EQ(stats.total_bits, 2u * 64u);
  EXPECT_EQ(stats.bit_errors, 0u);
}

TEST(Facade, SnrFollowsDeployment) {
  auto cfg = fast_config();
  cfg.snr_override_db.reset();
  cfg.distance_m = 7.5;
  Link link(cfg);
  EXPECT_NEAR(link.snr_db(), 28.0, 1e-9);  // narrow-beam anchor point
}

TEST(Facade, LinkConfigDefaultsAreUsable) {
  // The default 8 Kbps config must at least construct and report rates
  // (constructing the full L=8 stack is the expensive real configuration).
  const LinkConfig cfg;
  EXPECT_EQ(cfg.rate, RatePreset::k8kbps);
  EXPECT_NEAR(phy_params_for(cfg.rate).data_rate_bps(), 8000.0, 1e-9);
}

}  // namespace
}  // namespace retroturbo
