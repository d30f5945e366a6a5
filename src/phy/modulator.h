// PHY modulator: payload bits -> complete packet firing schedule.
//
// Builds the preamble, training field and payload sections (frame.h) and
// maps payload bits onto DSM slots through the PQAM constellation: slot n
// fires module (n mod L) on each polarization group with the Gray-coded
// amplitude levels of the next log2(P) bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/narrow.h"
#include "lcm/tag_array.h"
#include "obs/trace.h"
#include "phy/constellation.h"
#include "phy/frame.h"
#include "phy/params.h"
#include "signal/scrambler.h"

namespace rt::phy {

struct PacketSchedule {
  std::vector<lcm::Firing> firings;  ///< sorted by time; feed to TagArray
  FrameLayout layout;
  std::vector<SymbolLevels> payload_symbols;  ///< ground truth for testing
  int payload_symbol_count = 0;               ///< PQAM symbols (= active slots used)
  double duration_s = 0.0;                    ///< total frame duration incl. tail
};

/// Reusable modulation scratch. The frame prefix (preamble + training +
/// pixel-calibration firings) is payload-independent, so it is built and
/// sorted once and replayed for every packet with the same geometry.
struct ModulatorWorkspace {
  std::vector<std::uint8_t> bits;       ///< scrambled, padded payload bits
  std::vector<lcm::Firing> prefix;      ///< sorted payload-independent firings
  FrameLayout prefix_layout;
  PhyParams prefix_params;
  bool prefix_valid = false;
};

class Modulator {
 public:
  explicit Modulator(const PhyParams& params)
      : p_(params), constellation_(params.bits_per_axis, params.use_q_channel) {
    p_.validate();
  }

  /// Number of padding-free payload bits per slot.
  [[nodiscard]] int bits_per_slot() const { return constellation_.bits_per_symbol(); }

  /// Payload slot count a `payload_bits`-bit payload occupies after
  /// padding to whole firing groups -- the frame-geometry contract a
  /// streaming receiver needs before it has seen any packet. Matches
  /// modulate_into()'s layout exactly.
  [[nodiscard]] int payload_slots_for(std::size_t payload_bits) const {
    const auto bps = static_cast<std::size_t>(bits_per_slot());
    const std::size_t group_bits = static_cast<std::size_t>(p_.dsm_order) * bps;
    const std::size_t padded = ((payload_bits + group_bits - 1) / group_bits) * group_bits;
    const int groups = narrow_cast<int>(padded / group_bits);
    return groups * p_.period_slots();
  }

  /// Builds a full packet into `out`. `payload_bits` is scrambled (DC
  /// balance, footnote 4), zero-padded to a whole number of slots, and
  /// mapped to symbols. `out` is rebuilt inside its existing capacity and
  /// the payload-independent frame prefix is replayed from `ws`.
  void modulate_into(std::span<const std::uint8_t> payload_bits, ModulatorWorkspace& ws,
                     PacketSchedule& out) const {
    RT_TRACE_SPAN("modulate");
    auto& bits = ws.bits;
    bits.assign(payload_bits.begin(), payload_bits.end());
    scrambler_.apply_in_place(bits);
    const int bps = bits_per_slot();
    // Pad to whole firing groups so the receiver can derive the symbol
    // count from the slot count alone (basic DSM keeps whole periods).
    const std::size_t group_bits =
        static_cast<std::size_t>(p_.dsm_order) * static_cast<std::size_t>(bps);
    // rt-check: alloc-ok (pads less than one firing group inside pooled ws.bits capacity)
    while (bits.size() % group_bits != 0) bits.push_back(0);
    const int payload_symbols = narrow_cast<int>(bits.size()) / bps;
    const int groups = payload_symbols / p_.dsm_order;
    const int payload_slots = groups * p_.period_slots();

    out.layout = FrameLayout::for_params(p_, payload_slots);
    out.payload_symbol_count = payload_symbols;

    // Frame prefix (preamble + training + pixel calibration): depends only
    // on (params, layout), so replay the cached sorted copy when possible.
    if (!ws.prefix_valid || !(ws.prefix_params == p_) || !(ws.prefix_layout == out.layout)) {
      ws.prefix = preamble_firings(p_, out.layout.preamble_begin());
      const auto tsched = training_schedule(p_, out.layout);
      const auto tfirings = training_firings(p_, tsched);
      ws.prefix.insert(ws.prefix.end(), tfirings.begin(), tfirings.end());
      const auto pfirings = pixel_training_firings(p_, out.layout);
      ws.prefix.insert(ws.prefix.end(), pfirings.begin(), pfirings.end());
      std::sort(ws.prefix.begin(), ws.prefix.end(),
                [](const lcm::Firing& a, const lcm::Firing& b) { return a.time_s < b.time_s; });
      ws.prefix_params = p_;
      ws.prefix_layout = out.layout;
      ws.prefix_valid = true;
    }
    out.firings.clear();
    out.firings.reserve(ws.prefix.size() + static_cast<std::size_t>(payload_symbols));
    out.firings.insert(out.firings.end(), ws.prefix.begin(), ws.prefix.end());
    // Payload: symbol s occupies the s-th *active* slot (basic DSM rests
    // for basic_rest_slots after every L-slot group). Payload firing times
    // ascend and all exceed every prefix time, so appending keeps the
    // whole schedule sorted without re-sorting (all times are distinct --
    // the full-sort result is the same sequence).
    out.payload_symbols.clear();
    out.payload_symbols.reserve(static_cast<std::size_t>(payload_symbols));
    for (int s = 0; s < payload_symbols; ++s) {
      const auto offset = static_cast<std::size_t>(s) * static_cast<std::size_t>(bps);
      const auto sym = constellation_.map(std::span(bits).subspan(offset, bps));
      out.payload_symbols.push_back(sym);
      const int slot = (s / p_.dsm_order) * p_.period_slots() + (s % p_.dsm_order);
      lcm::Firing f;
      f.time_s = (out.layout.payload_begin() + slot) * p_.slot_s;
      f.module = s % p_.dsm_order;
      f.level_i = sym.level_i;
      f.level_q = sym.level_q;
      out.firings.push_back(f);
    }
    RT_ASSERT(std::is_sorted(out.firings.begin(), out.firings.end(),
                             [](const lcm::Firing& a, const lcm::Firing& b) {
                               return a.time_s < b.time_s;
                             }));
    out.duration_s = out.layout.total_slots() * p_.slot_s;
  }

  [[nodiscard]] const Constellation& constellation() const { return constellation_; }
  [[nodiscard]] const PhyParams& params() const { return p_; }

 private:
  PhyParams p_;
  Constellation constellation_;
  sig::Scrambler scrambler_{};
};

}  // namespace rt::phy
