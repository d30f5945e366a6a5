// RetroTurbo public API.
//
// One-stop facade over the full stack: pick a rate preset (or custom PHY
// parameters), describe the deployment (distance, orientation, ambient
// light), and move bytes across the simulated visible-light backscatter
// link exactly as the SIGCOMM'20 system would -- DSM-PQAM modulation on a
// liquid-crystal pixel array, preamble rotation correction, two-stage
// channel training and K-branch DFE demodulation at the reader. Every send
// runs the coded-frame stack (sim::CodedLink: CRC-16, whitening,
// interleaving, soft-decision Reed-Solomon or Viterbi decoding) and is
// retransmitted on a CRC failure, the thin MAC of paper section 4.4.
//
//   retroturbo::LinkConfig cfg;
//   cfg.rate = retroturbo::RatePreset::k8kbps;
//   cfg.distance_m = 5.0;
//   cfg.code = rt::coding::CodeDescriptor::reed_solomon(255, 223);
//   retroturbo::Link link(cfg);
//   auto result = link.send_bytes(payload);
//
// Lower layers remain fully accessible (rt::phy, rt::lcm, rt::sim, ...)
// for research use; this header is the adopter entry point.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coding/code_descriptor.h"
#include "common/bitio.h"
#include "common/error.h"
#include "common/units.h"
#include "fleet/campaign.h"
#include "fleet/collision.h"
#include "mac/rate_table.h"
#include "obs/trace.h"
#include "sim/coded_link.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"
#include "stream/sim_source.h"
#include "stream/source.h"
#include "stream/streaming_receiver.h"

namespace retroturbo {

/// Library version.
[[nodiscard]] inline std::string version() { return "1.0.0"; }

/// The paper's operating points (Tab. 3 / Fig. 18a).
enum class RatePreset { k1kbps, k4kbps, k8kbps, k16kbps, k32kbps };

[[nodiscard]] inline rt::phy::PhyParams phy_params_for(RatePreset preset) {
  switch (preset) {
    case RatePreset::k1kbps:
      return rt::phy::PhyParams::rate_1kbps();
    case RatePreset::k4kbps:
      return rt::phy::PhyParams::rate_4kbps();
    case RatePreset::k8kbps:
      return rt::phy::PhyParams::rate_8kbps();
    case RatePreset::k16kbps:
      return rt::phy::PhyParams::rate_16kbps();
    case RatePreset::k32kbps:
      return rt::phy::PhyParams::rate_32kbps();
  }
  throw rt::PreconditionError("unknown rate preset");
}

struct LinkConfig {
  RatePreset rate = RatePreset::k8kbps;
  /// Full PHY control when the presets are not enough (overrides `rate`).
  std::optional<rt::phy::PhyParams> custom_phy;

  // Deployment geometry and environment.
  double distance_m = 2.0;
  double roll_deg = 0.0;
  double yaw_deg = 0.0;
  double ambient_lux = 200.0;
  /// Direct SNR control for emulation studies (bypasses the link budget).
  std::optional<double> snr_override_db;

  // Tag hardware realism.
  double pixel_gain_spread = 0.03;
  double pixel_timing_spread = 0.02;
  double polarizer_error_deg = 1.0;

  /// Outer code of every frame (CRC-16 is always appended).
  rt::coding::CodeDescriptor code = rt::coding::CodeDescriptor::none();
  /// Retransmissions after a CRC failure: up to 1 + this many attempts.
  int max_retransmissions = 4;

  std::uint64_t seed = 1;
};

struct TransferResult {
  bool delivered = false;
  int attempts = 0;
  std::vector<std::uint8_t> received;  ///< CRC-clean payload (empty unless delivered)
};

/// A point-to-point RetroTurbo uplink (tag -> reader): coded frames with
/// stop-and-wait retransmission. Attempt i of the link's lifetime is coded
/// frame i of its sim::CodedLink, so the channel an attempt meets depends
/// only on the seed and i, never on the payloads sent before it.
class Link {
 public:
  explicit Link(const LinkConfig& config)
      : cfg_(config),
        sim_(make_phy(config), make_tag(config), make_channel(config), make_sim_options(config)),
        coded_(sim_, rt::coding::CodedFrameConfig{.code = config.code}) {
    RT_ENSURE(config.max_retransmissions >= 0, "max_retransmissions must be non-negative");
  }
  // coded_ refers to sim_, so a Link stays where it was built.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Sends `payload` as one coded frame; retransmits on CRC failure.
  [[nodiscard]] TransferResult send_bytes(std::span<const std::uint8_t> payload) {
    RT_ENSURE(!payload.empty(), "payload must not be empty");
    const auto bits = rt::bytes_to_bits(payload);
    TransferResult out;
    for (int retry = 0; retry <= cfg_.max_retransmissions; ++retry) {
      if (retry > 0) RT_OBS_COUNT(kMacArqRetries, 1);
      ++out.attempts;
      const auto r = coded_.send_bits(next_packet_++, bits, ws_);
      if (r.crc_ok) {
        out.delivered = true;
        out.received = rt::bits_to_bytes(r.payload);
        break;
      }
    }
    return out;
  }

  /// Raw-PHY BER measurement (the paper's 30-packet methodology).
  [[nodiscard]] rt::sim::LinkStats measure_ber(int packets = 30,
                                               std::size_t payload_bytes = 128) {
    return sim_.run(packets, payload_bytes);
  }

  [[nodiscard]] double snr_db() const { return sim_.snr_db(); }
  [[nodiscard]] double data_rate_bps() const { return sim_.params().data_rate_bps(); }
  [[nodiscard]] const rt::phy::PhyParams& phy() const { return sim_.params(); }
  [[nodiscard]] const rt::sim::LinkSimulator& simulator() const { return sim_; }

 private:
  [[nodiscard]] static rt::phy::PhyParams make_phy(const LinkConfig& c) {
    return c.custom_phy ? *c.custom_phy : phy_params_for(c.rate);
  }

  [[nodiscard]] static rt::lcm::TagConfig make_tag(const LinkConfig& c) {
    auto tag = make_phy(c).tag_config();
    tag.heterogeneity = {c.pixel_gain_spread, c.pixel_timing_spread,
                         rt::deg_to_rad(c.polarizer_error_deg)};
    tag.seed = c.seed;
    return tag;
  }

  [[nodiscard]] static rt::sim::ChannelConfig make_channel(const LinkConfig& c) {
    rt::sim::ChannelConfig ch;
    ch.pose.distance_m = c.distance_m;
    ch.pose.roll_rad = rt::deg_to_rad(c.roll_deg);
    ch.pose.yaw_rad = rt::deg_to_rad(c.yaw_deg);
    ch.ambient.illuminance_lux = c.ambient_lux;
    ch.snr_override_db = c.snr_override_db;
    ch.noise_seed = c.seed + 0x9E3779B9ULL;
    return ch;
  }

  [[nodiscard]] static rt::sim::SimOptions make_sim_options(const LinkConfig& c) {
    rt::sim::SimOptions o;
    o.seed = c.seed + 0x85EBCA6BULL;
    o.export_soft_bits = true;
    return o;
  }

  LinkConfig cfg_;
  rt::sim::LinkSimulator sim_;
  rt::sim::CodedLink coded_;
  rt::sim::PacketWorkspace ws_;
  std::uint64_t next_packet_ = 0;
};

}  // namespace retroturbo
