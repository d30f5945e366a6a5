// End-to-end tests for sim::CodedLink: FEC-wrapped packets through the
// full TX -> channel -> RX pipeline, covering delivery at high SNR, the
// purity contract (serial == any parallel partition, workspace reuse ==
// fresh workspaces, both on failing frames), the soft/hard decode modes
// sharing one channel, and send_bits reproducing run_packet on its own
// info bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <vector>

#include "coding/code_descriptor.h"
#include "common/units.h"
#include "runtime/thread_pool.h"
#include "sim/coded_link.h"
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

SimOptions soft_options(std::uint64_t seed) {
  SimOptions so;
  so.seed = seed;
  so.offline_yaws_deg = {0.0};
  so.export_soft_bits = true;
  return so;
}

TEST(CodedLink, DeliversCleanFramesAtHighSnr) {
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 22.0;
  ch.noise_seed = 5;
  const LinkSimulator sim(p, p.tag_config(), ch, soft_options(42));

  for (const auto& code : {coding::CodeDescriptor::convolutional(7),
                           coding::CodeDescriptor::reed_solomon(63, 47)}) {
    coding::CodedFrameConfig cfg;
    cfg.code = code;
    const CodedLink link(sim, cfg);
    const auto stats = link.run(4, 16);
    EXPECT_EQ(stats.packets, 4) << code.label();
    EXPECT_EQ(stats.preamble_failures, 0) << code.label();
    EXPECT_EQ(stats.crc_failures, 0) << code.label();
    EXPECT_EQ(stats.info_bit_errors, 0u) << code.label();
    // The coded stream really is longer than the information it carries.
    EXPECT_GT(stats.raw_bits, stats.info_bits) << code.label();
    EXPECT_EQ(stats.info_bits, 4u * 16u * 8u) << code.label();
  }
}

TEST(CodedLink, SerialEqualsAnyParallelPartition) {
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 7.0;  // raw errors in every frame; most decodes fail
  ch.noise_seed = 11;
  const LinkSimulator sim(p, p.tag_config(), ch, soft_options(77));
  coding::CodedFrameConfig cfg;
  cfg.code = coding::CodeDescriptor::reed_solomon(63, 47);
  const CodedLink link(sim, cfg);

  constexpr int kPackets = 8;
  const auto serial = link.run(kPackets, 16);
  // The partitions must agree on failing frames, not only on clean ones.
  EXPECT_GT(serial.raw_bit_errors, 0u);
  EXPECT_GE(serial.crc_failures, 1);

  for (const unsigned threads : {2U, 4U}) {
    runtime::ThreadPool pool(threads);
    const int parts = static_cast<int>(threads);
    std::vector<CodedLinkStats> partials(static_cast<std::size_t>(parts));
    std::vector<std::future<void>> futs;
    futs.reserve(static_cast<std::size_t>(parts));
    for (int t = 0; t < parts; ++t) {
      futs.push_back(pool.submit([&link, &partials, t, parts] {
        PacketWorkspace ws;  // one workspace per task, never shared
        for (int i = t; i < kPackets; i += parts)
          partials[static_cast<std::size_t>(t)].add(
              link.run_packet(static_cast<std::uint64_t>(i), 16, ws));
      }));
    }
    for (auto& f : futs) f.get();
    CodedLinkStats merged;
    for (const auto& s : partials) merged.merge(s);
    EXPECT_EQ(merged, serial) << threads << " threads";
  }
}

TEST(CodedLink, WorkspaceReuseMatchesFreshWorkspaces) {
  const auto p = fast_params();
  ChannelConfig ch;
  // The K=7 convolutional code still delivers all four frames at 5 dB;
  // at 4 dB frames carry raw errors and some decodes fail.
  ch.snr_override_db = 4.0;
  ch.noise_seed = 11;
  const LinkSimulator sim(p, p.tag_config(), ch, soft_options(77));
  coding::CodedFrameConfig cfg;
  cfg.code = coding::CodeDescriptor::convolutional(7);
  const CodedLink link(sim, cfg);

  PacketWorkspace shared;
  std::size_t raw_errors = 0;
  int crc_failures = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto reused = link.run_packet(i, 16, shared);
    PacketWorkspace fresh;
    const auto clean = link.run_packet(i, 16, fresh);
    EXPECT_EQ(reused.crc_ok, clean.crc_ok) << "packet " << i;
    EXPECT_EQ(reused.info_bit_errors, clean.info_bit_errors) << "packet " << i;
    EXPECT_EQ(reused.raw_bit_errors, clean.raw_bit_errors) << "packet " << i;
    EXPECT_EQ(reused.erasures_used, clean.erasures_used) << "packet " << i;
    raw_errors += clean.raw_bit_errors;
    crc_failures += clean.crc_ok ? 0 : 1;
  }
  EXPECT_GT(raw_errors, 0u);
  EXPECT_GE(crc_failures, 1);
}

TEST(CodedLink, SoftAndHardModesShareOneChannel) {
  // Decode mode only changes the receiver's use of the LLRs; the on-air
  // frame and the channel realization are identical, so the pre-decode
  // raw error counts must match bit for bit.
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 7.0;  // raw errors in every frame; most decodes fail
  ch.noise_seed = 19;
  const LinkSimulator sim(p, p.tag_config(), ch, soft_options(99));
  coding::CodedFrameConfig cfg;
  cfg.code = coding::CodeDescriptor::reed_solomon(63, 47);
  const CodedLink link(sim, cfg);

  PacketWorkspace ws;
  std::size_t soft_info_errors = 0;
  std::size_t hard_info_errors = 0;
  std::size_t raw_errors = 0;
  int crc_failures = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const auto soft = link.run_packet(i, 16, ws, CodedLink::DecodeMode::kSoft);
    const auto hard = link.run_packet(i, 16, ws, CodedLink::DecodeMode::kHard);
    ASSERT_TRUE(soft.preamble_found);
    EXPECT_EQ(soft.raw_bits, hard.raw_bits) << "packet " << i;
    EXPECT_EQ(soft.raw_bit_errors, hard.raw_bit_errors) << "packet " << i;
    soft_info_errors += soft.info_bit_errors;
    hard_info_errors += hard.info_bit_errors;
    raw_errors += soft.raw_bit_errors;
    crc_failures += (soft.crc_ok ? 0 : 1) + (hard.crc_ok ? 0 : 1);
  }
  EXPECT_GT(raw_errors, 0u);
  EXPECT_GE(crc_failures, 1);
  // Sign-aligned LLRs slice back to the hard decisions, so soft decoding
  // can only refine the hard outcome, never lose to it here.
  EXPECT_LE(soft_info_errors, hard_info_errors);
}

TEST(CodedLink, SendBitsEqualsRunPacketOnItsInfoBits) {
  // run_packet is "draw the info bits, then send_bits": fed the bits
  // run_packet drew, send_bits on a fresh workspace reproduces its outcome
  // field by field, decoded payload included, in both decode modes.
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 7.0;  // raw errors in every frame; most decodes fail
  ch.noise_seed = 11;
  const LinkSimulator sim(p, p.tag_config(), ch, soft_options(77));
  coding::CodedFrameConfig cfg;
  cfg.code = coding::CodeDescriptor::reed_solomon(63, 47);
  const CodedLink link(sim, cfg);

  PacketWorkspace ws;
  int crc_ok = 0;
  for (const auto mode : {CodedLink::DecodeMode::kSoft, CodedLink::DecodeMode::kHard}) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto ref = link.run_packet(i, 16, ws, mode);
      const std::vector<std::uint8_t> info(ws.info_bits.begin(), ws.info_bits.end());
      const std::vector<std::uint8_t> ref_payload(ref.payload.begin(), ref.payload.end());
      PacketWorkspace fresh;
      const auto got = link.send_bits(i, info, fresh, mode);
      EXPECT_EQ(got.preamble_found, ref.preamble_found) << "packet " << i;
      EXPECT_EQ(got.decode_ok, ref.decode_ok) << "packet " << i;
      EXPECT_EQ(got.crc_ok, ref.crc_ok) << "packet " << i;
      EXPECT_EQ(got.info_bits, ref.info_bits) << "packet " << i;
      EXPECT_EQ(got.info_bit_errors, ref.info_bit_errors) << "packet " << i;
      EXPECT_EQ(got.raw_bits, ref.raw_bits) << "packet " << i;
      EXPECT_EQ(got.raw_bit_errors, ref.raw_bit_errors) << "packet " << i;
      EXPECT_EQ(got.erasures_used, ref.erasures_used) << "packet " << i;
      EXPECT_EQ(got.snr_estimate_db, ref.snr_estimate_db) << "packet " << i;
      EXPECT_EQ(std::vector<std::uint8_t>(got.payload.begin(), got.payload.end()), ref_payload)
          << "packet " << i;
      if (ref.preamble_found) {
        EXPECT_EQ(ref.payload.size(), info.size()) << "packet " << i;
      }
      crc_ok += ref.crc_ok ? 1 : 0;
    }
  }
  // Both outcomes are exercised: a delivered frame and failed decodes.
  EXPECT_GT(crc_ok, 0);
  EXPECT_LT(crc_ok, 12);
}

}  // namespace
}  // namespace rt::sim
