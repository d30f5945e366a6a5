#include "phy/equalizer.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "common/error.h"
#include "common/narrow.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace rt::phy {

namespace {

// The pulse bank stores per-module templates keyed by
// (V-bit pixel history << 1) | fired, measured at full level with uniform
// pixel history. Because pixel responses are proportional to area (paper
// footnote 6), a module's waveform for an arbitrary level and per-pixel
// histories decomposes as
//   sum_{weight pixels b} area_b * template[module][(hist_b << 1) | fired_b]
// with fired_b the level's weight bit. Unfired pixels with recent history
// still contribute their discharge tails (the fired=0 templates) -- the
// residue that would otherwise accumulate as an error floor for dense
// constellations. The equalizer therefore tracks a V-bit history per
// *pixel*.

using Branch = EqualizerWorkspace::Branch;
using Step = EqualizerWorkspace::Step;

/// Writes the merge key of a survivor -- its last (L - 1) decisions (whose
/// pulses still overlap future slots) plus every pixel history -- into
/// `dst` (fixed stride, zero-padded tail). The survivor's newest decision
/// is `sym`; older ones are read off the trail from `parent_step`; `depth`
/// counts all of its decisions. All branches compared within one slot
/// carry the same depth, so the padded fixed-width layout equals the
/// variable-length key byte for byte where it matters.
void write_merge_key(std::span<const Step> trail, std::size_t parent_step, SymbolLevels sym,
                     std::size_t depth, int dsm_order, std::span<const unsigned> pixel_hist,
                     std::span<char> dst) {
  std::memset(dst.data(), 0, dst.size());
  const std::size_t tail = std::min(depth, static_cast<std::size_t>(dsm_order - 1));
  // Oldest decision first, newest (`sym`) last.
  std::size_t step = parent_step;
  for (std::size_t j = tail; j-- > 0;) {
    // rt-lint: narrowing-ok (opaque hash key; only equality matters)
    dst[2 * j] = static_cast<char>(sym.level_i + 2);
    dst[2 * j + 1] = static_cast<char>(sym.level_q + 2);  // rt-lint: narrowing-ok
    if (j > 0) {
      sym = trail[step].sym;
      step = trail[step].prev;
    }
  }
  std::size_t w = 2 * tail;
  dst[w++] = '|';
  // rt-lint: narrowing-ok (opaque hash key; only equality matters)
  for (const auto h : pixel_hist) dst[w++] = static_cast<char>(h);
}

}  // namespace

DfeEqualizer::DfeEqualizer(const PhyParams& params, const PulseBank& bank)
    : p_(params), bank_(bank), constellation_(params.bits_per_axis, params.use_q_channel) {
  p_.validate();
  const int expected_modules = p_.use_q_channel ? 2 * p_.dsm_order : p_.dsm_order;
  RT_ENSURE(bank.modules() == expected_modules, "pulse bank module count mismatch");
  RT_ENSURE(bank.entries() == p_.fingerprint_entries(), "pulse bank key-space mismatch");
  RT_ENSURE(bank.pulse_len() == p_.samples_per_symbol(), "pulse bank template length mismatch");
}

void DfeEqualizer::equalize_into(const sig::IqWaveform& rx, std::size_t payload_begin,
                                 int n_slots, std::span<const unsigned> initial_histories,
                                 EqualizerWorkspace& ws, EqualizerResult& out,
                                 bool soft_output) const {
  RT_TRACE_SPAN("dfe");
  RT_ENSURE(n_slots >= 1, "need at least one slot");
  const int l = p_.dsm_order;
  const int modules = p_.use_q_channel ? 2 * l : l;
  const int bits = p_.bits_per_axis;
  const auto ubits = static_cast<std::size_t>(bits);
  const std::size_t n_pixels = static_cast<std::size_t>(modules) * ubits;
  RT_ENSURE(initial_histories.size() == n_pixels,
            "initial history count must equal the pixel count (modules x bits_per_axis)");
  const std::size_t t_samps = p_.samples_per_slot();
  const std::size_t w_samps = p_.samples_per_symbol();
  const unsigned hist_mask = p_.history_mask();
  const double area_denom = static_cast<double>((1 << bits) - 1);
  const auto entries = static_cast<std::size_t>(bank_.entries());
  const auto n_keys = narrow_cast<unsigned>(bank_.entries());
  const std::size_t levels = std::size_t{1} << ubits;
  const std::size_t bits_per_symbol = static_cast<std::size_t>(p_.bits_per_slot());
  const auto max_branches = static_cast<std::size_t>(p_.equalizer_branches);

  // rx sample at absolute index, zero beyond the end.
  const auto rx_at = [&](std::size_t idx) -> Complex {
    return idx < rx.size() ? rx[idx] : Complex{};
  };

  // Pre-weighted templates: every term the DFE subtracts is
  // area(wb) * pixel_gain(module, wb) * pulse(module, key)[k], and the
  // weight depends only on (module, pixel), never on the branch, so the
  // products are formed once per call (the bank changes every frame).
  // Key 0 (no history, unfired) contributes nothing and is never read.
  ws.weighted.resize(n_pixels * entries * w_samps);
  for (int mg = 0; mg < modules; ++mg) {
    for (int wb = 0; wb < bits; ++wb) {
      const int weight_bit = bits - 1 - wb;  // wb 0 = largest pixel
      const double area = static_cast<double>(1 << weight_bit) / area_denom;
      const Complex w = area * bank_.pixel_gain(mg, wb);
      const std::size_t pixel = static_cast<std::size_t>(mg) * ubits + static_cast<std::size_t>(wb);
      for (unsigned key = 1; key < n_keys; ++key) {
        const auto tmpl = bank_.pulse(mg, key);
        Complex* dst = ws.weighted.data() + (pixel * entries + key) * w_samps;
        for (std::size_t k = 0; k < w_samps; ++k) dst[k] = w * tmpl[k];
      }
    }
  }

  // Module waveform terms for `level` given per-pixel histories: one
  // pre-weighted template per pixel whose (history, fired) key is
  // non-zero -- including the tail terms of unfired pixels. Writes at
  // most bits_per_axis pointers to `dst` and returns their count.
  const auto gather = [&](int module_global, std::size_t level,
                          std::span<const unsigned> pixel_hist, const Complex** dst) {
    const std::size_t base = static_cast<std::size_t>(module_global) * ubits;
    std::size_t n = 0;
    for (std::size_t wb = 0; wb < ubits; ++wb) {
      const std::size_t weight_bit = ubits - 1 - wb;
      const unsigned fired = ((level >> weight_bit) & 1U) != 0 ? 1U : 0U;
      const unsigned h = pixel_hist[base + wb] & hist_mask;
      const unsigned key = (h << 1) | fired;
      if (key == 0) continue;
      dst[n++] = ws.weighted.data() + ((base + wb) * entries + key) * w_samps;
    }
    return n;
  };

  // Per-pixel history update for the cycled modules. Histories count in
  // W-cycles; in basic DSM a firing period spans (L + rest) / L cycles, so
  // the shift distance grows accordingly (rounded up; the rest cycles are
  // idle zeros).
  const int hist_shifts = std::max(1, (p_.period_slots() + l - 1) / l);
  const auto update_hist = [&](std::vector<unsigned>& pixel_hist, int module_global, int level) {
    const std::size_t base = static_cast<std::size_t>(module_global) * ubits;
    for (int wb = 0; wb < bits; ++wb) {
      const int weight_bit = bits - 1 - wb;
      const unsigned fired = (level > 0 && ((level >> weight_bit) & 1)) ? 1U : 0U;
      auto& h = pixel_hist[base + static_cast<std::size_t>(wb)];
      h = ((h << hist_shifts) | (fired << (hist_shifts - 1))) & hist_mask;
    }
  };

  // Seed branch reuses pool slot 0; every field is fully rewritten.
  if (ws.cur.empty()) ws.cur.emplace_back();  // rt-check: alloc-ok (pool seeding, first packet only)
  {
    Branch& seed = ws.cur[0];
    seed.metric = 0.0;
    seed.step = EqualizerWorkspace::kNoStep;
    seed.pixel_hist.assign(initial_histories.begin(), initial_histories.end());
    seed.residual.resize(w_samps);
    for (std::size_t k = 0; k < w_samps; ++k) seed.residual[k] = rx_at(payload_begin + k);
  }
  ws.n_cur = 1;

  // Alphabet is a pure function of (bits_per_axis, use_q_channel); rebuild
  // only when the constellation changed since the last packet.
  if (ws.alphabet_bits != bits || ws.alphabet_q != (p_.use_q_channel ? 1 : 0)) {
    ws.alphabet = constellation_.alphabet();
    ws.alphabet_bits = bits;
    ws.alphabet_q = p_.use_q_channel ? 1 : 0;
  }
  const auto& alphabet = ws.alphabet;
  const std::size_t n_alpha = alphabet.size();

  // Every per-slot buffer is sized here, before the slot loop: at most K
  // branches expand per slot and each active slot keeps at most K steps.
  std::size_t n_active = 0;
  for (int n = 0; n < n_slots; ++n) n_active += p_.slot_active(n) ? 1 : 0;
  ws.trail.clear();
  ws.trail.reserve(max_branches * n_active);
  ws.trail_llrs.clear();
  if (soft_output) ws.trail_llrs.reserve(max_branches * n_active * bits_per_symbol);
  ws.scores.resize(max_branches * n_alpha);
  ws.order.resize(max_branches * n_alpha);
  ws.gathered.resize(max_branches * 2 * levels * ubits);
  ws.n_gathered.resize(max_branches * 2 * levels);
  ws.partial_i.resize(levels * t_samps);

  // Merge-key layout: fixed stride so keys live in one flat buffer.
  const std::size_t key_stride =
      2 * static_cast<std::size_t>(l > 0 ? l - 1 : 0) + 1 + n_pixels;
  if (p_.merge_equalizer_states) ws.seen_keys.resize(max_branches * key_stride);

  std::size_t n_decided = 0;  // decisions per branch so far (all branches alike)
  for (int n = 0; n < n_slots; ++n) {
    if (!p_.slot_active(n)) {
      // Basic-DSM rest slot: no firing to decide. Score the window energy
      // (a correct past cancels to noise; a wrong decision leaves residual
      // here), then slide every branch forward one slot.
      for (std::size_t bi = 0; bi < ws.n_cur; ++bi) {
        Branch& b = ws.cur[bi];
        for (std::size_t k = 0; k < t_samps; ++k) b.metric += std::norm(b.residual[k]);
        for (std::size_t k = t_samps; k < w_samps; ++k) b.residual[k - t_samps] = b.residual[k];
        const std::size_t next_window_begin =
            payload_begin + (static_cast<std::size_t>(n) + 1) * t_samps + (w_samps - t_samps);
        for (std::size_t k = 0; k < t_samps; ++k)
          b.residual[w_samps - t_samps + k] = rx_at(next_window_begin + k);
      }
      continue;
    }
    const int m = p_.slot_module(n);
    // Candidate scores, branch-major and alphabet i-major. Each candidate's
    // error chain is e = r - I terms - Q terms; the I part depends only on
    // (branch, I level), so it is formed once per level over the T-window
    // and each candidate subtracts just its Q terms from it. Terms are
    // gathered once per (branch, axis, level) and kept for the survivors'
    // tail update below.
    const std::size_t n_cand = ws.n_cur * n_alpha;
    for (std::size_t bi = 0; bi < ws.n_cur; ++bi) {
      const Branch& b = ws.cur[bi];
      const std::size_t g_base = bi * 2 * levels;  // (bi, I, level 0)
      for (std::size_t li = 0; li < levels; ++li) {
        const std::size_t g = g_base + li;
        const Complex** terms = ws.gathered.data() + g * ubits;
        ws.n_gathered[g] = gather(m, li, b.pixel_hist, terms);
        kernels::dfe_residual(t_samps, b.residual.data(), ws.partial_i.data() + li * t_samps,
                              terms, ws.n_gathered[g]);
      }
      if (p_.use_q_channel) {
        for (std::size_t lq = 0; lq < levels; ++lq) {
          const std::size_t g = g_base + levels + lq;
          ws.n_gathered[g] = gather(l + m, lq, b.pixel_hist, ws.gathered.data() + g * ubits);
        }
      }
      double* row = ws.scores.data() + bi * n_alpha;
      for (std::size_t a = 0; a < n_alpha; ++a) {
        const auto& sym = alphabet[a];
        const Complex* e_i =
            ws.partial_i.data() + static_cast<std::size_t>(sym.level_i) * t_samps;
        double score = 0.0;
        if (p_.use_q_channel) {
          const std::size_t g = g_base + levels + static_cast<std::size_t>(sym.level_q);
          score = kernels::dfe_score(t_samps, e_i, ws.gathered.data() + g * ubits,
                                     ws.n_gathered[g]);
        } else {
          score = kernels::dfe_score(t_samps, e_i, nullptr, 0);
        }
        row[a] = b.metric + score;
      }
    }

    // Survivor order is total -- (metric, candidate index) -- so exact ties
    // go to the lowest index and the top-K cut agrees with a full sort.
    // Without merging only the K best are ever read; merging may skip
    // duplicates and walk past K, so it sorts them all.
    const double* scores = ws.scores.data();
    const auto better = [scores](std::size_t a, std::size_t b) {
      return scores[a] < scores[b] || (scores[a] == scores[b] && a < b);
    };
    const auto first = ws.order.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(n_cand);
    std::iota(first, last, std::size_t{0});
    if (p_.merge_equalizer_states) {
      std::sort(first, last, better);
    } else {
      std::partial_sort(first, first + static_cast<std::ptrdiff_t>(std::min(max_branches, n_cand)),
                        last, better);
    }

    // Survivor selection into the `next` pool: optionally merge identical
    // trellis states first. Copy assignment into pooled branches reuses
    // the inner vectors' capacity; each kept decision is one trail step.
    RT_OBS_COUNT(kDfeBranchesExpanded, n_cand);
    std::size_t n_next = 0;
    std::size_t n_seen = 0;
    std::size_t n_merged = 0;
    for (std::size_t r = 0; r < n_cand && n_next < max_branches; ++r) {
      const std::size_t ci = ws.order[r];
      const std::size_t bi = ci / n_alpha;
      const SymbolLevels sym = alphabet[ci % n_alpha];
      const Branch& parent = ws.cur[bi];
      // rt-check: alloc-ok (branch pool grows to K once, then steady state reuses the slots)
      if (n_next == ws.next.size()) ws.next.emplace_back();
      Branch& nb = ws.next[n_next];
      nb.metric = scores[ci];
      nb.pixel_hist = parent.pixel_hist;
      update_hist(nb.pixel_hist, m, sym.level_i);
      if (p_.use_q_channel) update_hist(nb.pixel_hist, l + m, sym.level_q);
      if (p_.merge_equalizer_states) {
        const std::span<char> key(ws.seen_keys.data() + n_seen * key_stride, key_stride);
        write_merge_key(ws.trail, parent.step, sym, n_decided + 1, l, nb.pixel_hist, key);
        bool dup = false;
        for (std::size_t s = 0; s < n_seen; ++s) {
          if (std::memcmp(ws.seen_keys.data() + s * key_stride, key.data(), key_stride) == 0) {
            dup = true;  // a better-metric twin already survived
            break;
          }
        }
        if (dup) {
          ++n_merged;
          continue;
        }
        ++n_seen;
      }
      nb.step = ws.trail.size();
      ws.trail.push_back({parent.step, sym});
      if (soft_output)
        constellation_.unmap_soft_into({scores + bi * n_alpha, n_alpha}, ws.trail_llrs);
      // Decision feedback: subtract the decided cycle's waveform over its
      // full W span with the terms gathered for scoring, re-based at the
      // feedback offset, then slide the window one slot forward.
      std::array<const Complex*, 8> tail{};  // <= 2 axes x 4 pixels (validate())
      std::size_t n_tail = 0;
      const auto append = [&](std::size_t g) {
        for (std::size_t j = 0; j < ws.n_gathered[g]; ++j)
          tail[n_tail++] = ws.gathered[g * ubits + j] + t_samps;
      };
      append(bi * 2 * levels + static_cast<std::size_t>(sym.level_i));
      if (p_.use_q_channel)
        append(bi * 2 * levels + levels + static_cast<std::size_t>(sym.level_q));
      nb.residual.resize(w_samps);
      kernels::dfe_residual(w_samps - t_samps, parent.residual.data() + t_samps,
                            nb.residual.data(), tail.data(), n_tail);
      const std::size_t next_window_begin =
          payload_begin + (static_cast<std::size_t>(n) + 1) * t_samps + (w_samps - t_samps);
      for (std::size_t k = 0; k < t_samps; ++k)
        nb.residual[w_samps - t_samps + k] = rx_at(next_window_begin + k);
      ++n_next;
    }
    RT_OBS_COUNT(kDfeStateMerges, n_merged);
    RT_OBS_COUNT(kDfeBranchesPruned, n_cand - n_next - n_merged);
    std::swap(ws.cur, ws.next);
    ws.n_cur = n_next;
    ++n_decided;
    RT_ENSURE(ws.n_cur > 0, "equalizer lost all branches");
  }

  RT_DCHECK_FINITE(ws.cur.front().metric);
  const auto best = std::min_element(
      ws.cur.begin(), ws.cur.begin() + static_cast<std::ptrdiff_t>(ws.n_cur),
      [](const Branch& a, const Branch& b) { return a.metric < b.metric; });
  // Trace the winner back along the trail, newest decision last.
  out.symbols.resize(n_decided);
  out.soft_bits.resize(soft_output ? n_decided * bits_per_symbol : 0);
  std::size_t step = best->step;
  for (std::size_t j = n_decided; j-- > 0;) {
    out.symbols[j] = ws.trail[step].sym;
    if (soft_output)
      std::copy_n(ws.trail_llrs.begin() + static_cast<std::ptrdiff_t>(step * bits_per_symbol),
                  bits_per_symbol,
                  out.soft_bits.begin() + static_cast<std::ptrdiff_t>(j * bits_per_symbol));
    step = ws.trail[step].prev;
  }
  out.final_metric = best->metric;
  RT_OBS_OBSERVE(kEqualizerResidual, out.final_metric);
}

}  // namespace rt::phy
