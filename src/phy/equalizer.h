// K-branch decision-feedback equalizer for the DSM-PQAM ISI channel
// (paper section 4.3.2, Fig. 10).
//
// DSM deliberately creates ISI spanning L symbols. The DFE keeps K
// candidate decision prefixes ("branches"); per slot it expands every
// branch by all P constellation points, scores each candidate on the first
// T-window of the residual against the fingerprint templates, keeps the K
// best, and subtracts the decided pulse (full W span) from each survivor's
// residual. With state merging enabled and K >= the number of distinct
// trellis states this becomes the Viterbi detector the paper cites as the
// optimal-but-costly reference; K = 1 is the naive DFE of Fig. 17a.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/constellation.h"
#include "phy/params.h"
#include "phy/pulse_model.h"
#include "signal/waveform.h"

namespace rt::phy {

struct EqualizerResult {
  std::vector<SymbolLevels> symbols;
  double final_metric = 0.0;  ///< cumulative squared error of the winner
  /// Per-bit LLRs (positive = bit 0) along the winning path, one
  /// bits_per_symbol() group per decided slot; empty unless the soft
  /// output was requested.
  std::vector<float> soft_bits;
};

/// Reusable branch pools and scratch for DfeEqualizer::equalize_into().
/// Branches live in two pools (current generation / survivors) whose inner
/// vectors keep their capacity across slots and packets; every other
/// buffer is sized from (K, payload slots, bank shape) before the slot
/// loop, so the branch expansion stops allocating once the workspace has
/// seen the largest packet.
struct EqualizerWorkspace {
  /// Sentinel `prev`/`step` for the empty decision prefix.
  static constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);
  struct Branch {
    double metric = 0.0;
    std::size_t step = kNoStep;        ///< newest decision in `trail`
    std::vector<Complex> residual;     ///< upcoming window [nT, nT + W)
    std::vector<unsigned> pixel_hist;  ///< per-pixel V-bit firing history
  };
  /// One decision of one survivor; a branch's prefix is the chain of
  /// `prev` links from its newest step back to kNoStep.
  struct Step {
    std::size_t prev;
    SymbolLevels sym;
  };
  std::vector<Branch> cur;   ///< live branches (first n_cur entries)
  std::vector<Branch> next;  ///< survivor pool being built
  std::size_t n_cur = 0;
  std::vector<Step> trail;        ///< survivor memory, one entry per kept decision
  std::vector<float> trail_llrs;  ///< bits_per_symbol LLRs per trail step (soft mode)
  /// Candidate metrics in push order (branch-major, alphabet i-major):
  /// row `bi` is parent `bi`'s per-symbol score row for the soft demapper.
  std::vector<double> scores;
  std::vector<std::size_t> order;  ///< candidate indices, best first after selection
  /// Pre-weighted templates area(wb) * pixel_gain(module, wb) *
  /// pulse(module, key), W samples per (module, pixel, key); rebuilt per
  /// call because online training changes the bank every frame.
  std::vector<Complex> weighted;
  /// Gathered template pointers per (branch, axis, level): up to
  /// bits_per_axis entries each, `n_gathered` of them live.
  std::vector<const Complex*> gathered;
  std::vector<std::size_t> n_gathered;
  std::vector<Complex> partial_i;  ///< residual minus I terms over T, per I level
  std::vector<SymbolLevels> alphabet;  ///< cached constellation alphabet
  int alphabet_bits = 0;               ///< cache key: bits per axis
  int alphabet_q = -1;                 ///< cache key: use_q (as int; -1 = invalid)
  std::vector<char> seen_keys;         ///< flat fixed-stride merge keys
};

class DfeEqualizer {
 public:
  DfeEqualizer(const PhyParams& params, const PulseBank& bank);

  /// Equalizes `n_slots` payload slots from `rx` starting at sample index
  /// `payload_begin` and writes the winning decision sequence into `out`,
  /// reusing the workspace pools. `initial_histories` holds the V-bit
  /// firing history of each *pixel* (module-major: I modules 0..L-1 then
  /// Q modules, and within a module the weight pixels MSB-first) at the
  /// first payload slot. With `soft_output`, each surviving branch
  /// additionally carries max-log-MAP per-bit LLRs (min-distance margins
  /// over this slot's candidate scores, conditioned on the branch's own
  /// decision prefix), and the winner's LLR stream is exported in
  /// `out.soft_bits`.
  void equalize_into(const sig::IqWaveform& rx, std::size_t payload_begin, int n_slots,
                     std::span<const unsigned> initial_histories, EqualizerWorkspace& ws,
                     EqualizerResult& out, bool soft_output = false) const;

 private:
  const PhyParams p_;
  const PulseBank& bank_;
  Constellation constellation_;
};

}  // namespace rt::phy
