// Mobility support: segmented packets with mid-packet resynchronization.
//
// The paper's discussion (section 8) notes that the per-packet channel
// training assumes a static channel, and proposes "inserting multiple
// synchronization frames based on the mobility level and packet length".
// This module implements that extension:
//
//   | preamble | training |  block 0 | sync | block 1 | sync | block 2 ...
//
// Each sync field is a guard-flanked known firing pattern. The receiver
// re-runs the widely-linear rotation/gain/DC regression on every sync
// field and applies the refreshed correction to the following block, so a
// tag (or reader) rotating or fading *during* a long packet stays
// demodulable. Pulse-template shapes are still trained once per packet --
// sync fields track the fast linear drift (rotation, gain), training
// handles the slow structural state, matching the paper's split.
#pragma once

#include <vector>

#include "phy/demodulator.h"
#include "phy/modulator.h"

namespace rt::phy {

struct MobileConfig {
  /// Payload symbols per block (between sync fields).
  int block_symbols = 64;
  /// Sync-field firing slots (excluding the two L-slot guards around it).
  int sync_slots = 16;

  void validate(const PhyParams& p) const {
    RT_ENSURE(block_symbols >= p.dsm_order, "blocks must hold at least one firing group");
    RT_ENSURE(block_symbols % p.dsm_order == 0, "blocks must be whole firing groups");
    RT_ENSURE(sync_slots >= 8, "sync field too short for a stable regression");
  }
};

struct MobileBlock {
  int sync_begin_slot = 0;     ///< first slot of this block's sync field (block 0: none)
  int payload_begin_slot = 0;  ///< first payload slot of the block
  int payload_slots = 0;
  int payload_symbols = 0;
};

struct MobilePacket {
  std::vector<lcm::Firing> firings;
  FrameLayout layout;             ///< header layout (preamble/training/guards)
  std::vector<MobileBlock> blocks;
  std::vector<SymbolLevels> payload_symbols;  ///< ground truth across all blocks
  double duration_s = 0.0;
  int total_slots = 0;
};

class MobileModulator {
 public:
  MobileModulator(const PhyParams& params, const MobileConfig& config);

  [[nodiscard]] MobilePacket modulate(std::span<const std::uint8_t> payload_bits) const;

  /// The deterministic sync firing pattern (known to both ends).
  [[nodiscard]] static std::vector<lcm::Firing> sync_firings(const PhyParams& p, int first_slot,
                                                             int sync_slots);

  [[nodiscard]] const PhyParams& params() const { return p_; }
  [[nodiscard]] const MobileConfig& config() const { return cfg_; }

 private:
  PhyParams p_;
  MobileConfig cfg_;
  Constellation constellation_;
  sig::Scrambler scrambler_{};
};

class MobileDemodulator {
 public:
  MobileDemodulator(const PhyParams& params, const MobileConfig& config,
                    OfflineModel offline_model);

  struct Result {
    bool preamble_found = false;
    std::vector<std::uint8_t> bits;
    int blocks_resynced = 0;
    std::vector<double> block_rotation_deg;  ///< estimated correction per block
  };

  [[nodiscard]] Result demodulate(const sig::IqWaveform& rx, const MobilePacket& packet,
                                  const DemodOptions& options = {}) const;

 private:
  PhyParams p_;
  MobileConfig cfg_;
  Demodulator inner_;
  std::vector<Complex> sync_reference_;  ///< ideal-tag sync waveform (rotation-free)
};

}  // namespace rt::phy
