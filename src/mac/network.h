// Networked rate-adaptation study (paper Fig. 18c).
//
// Tags are placed uniformly between `min_distance_m` and `max_distance_m`
// from a wide-beam reader; the reader discovers them, measures each
// uplink SNR through the link-budget model, and assigns the goodput-
// maximizing (rate, coding) option per tag. The baseline assigns every tag
// the single rate the worst tag can sustain. The metric is the mean
// per-tag goodput ratio (adaptive / baseline), reported over many trials.
//
// Per-tag telemetry: alongside the aggregate means, the study records for
// every tag index the discovery round it was found in, its assigned-rate
// index, and the ARQ retries of a short stop-and-wait exchange at its
// assigned option (delivery drawn from the goodput model's packet-success
// probability). The ARQ draws come from a dedicated counter-split stream
// (`telemetry_seed`), never from the placement Rng -- so the aggregate
// goodput numbers are bit-identical to the pre-telemetry study.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "mac/goodput.h"
#include "mac/rate_table.h"
#include "mac/tdma.h"
#include "obs/trace.h"
#include "optics/link_budget.h"

namespace rt::mac {

struct NetworkStudyConfig {
  optics::LinkBudget budget = optics::LinkBudget::wide_beam();
  double min_distance_m = 1.0;
  double max_distance_m = 4.3;
  std::size_t payload_bytes = 128;
  int trials = 100;
  int arq_packets_per_tag = 4;         ///< telemetry exchange length
  int arq_max_attempts = 8;            ///< stop-and-wait retry cap
  std::uint64_t telemetry_seed = 777;  ///< ARQ stream, split per trial
};

/// Accumulated per-tag-index counters. All fields are plain sums, so
/// merge() is associative and commutative: any partition of a trial set
/// merges to identical telemetry (the LinkStats::merge discipline).
struct TagTelemetry {
  std::uint64_t trials = 0;
  std::uint64_t discovery_rounds = 0;        ///< sum of 1-based rounds found in
  std::uint64_t arq_retries = 0;
  std::uint64_t packets_attempted = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t assigned_rate_index_sum = 0;

  [[nodiscard]] double mean_discovery_round() const {
    return trials > 0 ? static_cast<double>(discovery_rounds) / static_cast<double>(trials) : 0.0;
  }
  [[nodiscard]] double mean_assigned_index() const {
    return trials > 0 ? static_cast<double>(assigned_rate_index_sum) / static_cast<double>(trials)
                      : 0.0;
  }
  [[nodiscard]] double delivery_rate() const {
    return packets_attempted > 0
               ? static_cast<double>(packets_delivered) / static_cast<double>(packets_attempted)
               : 0.0;
  }

  TagTelemetry& merge(const TagTelemetry& o) {
    trials += o.trials;
    discovery_rounds += o.discovery_rounds;
    arq_retries += o.arq_retries;
    packets_attempted += o.packets_attempted;
    packets_delivered += o.packets_delivered;
    assigned_rate_index_sum += o.assigned_rate_index_sum;
    return *this;
  }

  friend bool operator==(const TagTelemetry&, const TagTelemetry&) = default;
};

struct NetworkStudyResult {
  int tags = 0;
  double mean_adaptive_bps = 0.0;
  double mean_baseline_bps = 0.0;
  double mean_discovery_rounds = 0.0;
  std::vector<TagTelemetry> per_tag;  ///< indexed by tag id

  [[nodiscard]] double gain() const {
    return mean_baseline_bps > 0.0 ? mean_adaptive_bps / mean_baseline_bps : 0.0;
  }
};

/// Runs the Fig. 18c experiment for `num_tags` tags.
[[nodiscard]] inline NetworkStudyResult rate_adaptation_study(int num_tags,
                                                              const RateTable& table,
                                                              const GoodputModel& model,
                                                              const NetworkStudyConfig& cfg,
                                                              Rng& rng) {
  RT_ENSURE(num_tags >= 1, "need at least one tag");
  RT_ENSURE(cfg.trials >= 1, "need at least one trial");
  RT_ENSURE(cfg.arq_max_attempts >= 1, "ARQ needs at least one attempt");
  NetworkStudyResult out;
  out.tags = num_tags;
  out.per_tag.resize(static_cast<std::size_t>(num_tags));
  double sum_adaptive = 0.0;
  double sum_baseline = 0.0;
  double sum_rounds = 0.0;
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(num_tags));
  std::iota(ids.begin(), ids.end(), 0U);
  std::vector<std::uint32_t> found_round(ids.size());
  std::vector<double> snrs(ids.size());
  for (int trial = 0; trial < cfg.trials; ++trial) {
    // Place tags and compute their SNRs.
    for (double& snr : snrs)
      snr = cfg.budget.snr_db_at(rng.uniform(cfg.min_distance_m, cfg.max_distance_m));
    // Discovery (adds protocol fidelity + the rounds metric), seeded by
    // one draw of the study Rng the way Rng::fork seeds a child.
    const auto disc = discover_tags(ids, rng.engine()(), 0, found_round);
    sum_rounds += disc.rounds;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      auto& tel = out.per_tag[i];
      ++tel.trials;
      tel.discovery_rounds += found_round[i];
    }

    // TDMA gives every tag an equal airtime share; mean per-tag goodput.
    // The ARQ telemetry stream splits off `telemetry_seed` per trial so
    // the placement/discovery draws above stay on their original seeds.
    Rng arq_rng(split_seed(cfg.telemetry_seed, static_cast<std::uint64_t>(trial)));
    double adaptive = 0.0;
    for (int i = 0; i < num_tags; ++i) {
      const double snr = snrs[i];
      const std::size_t assigned = model.best_option_index(table, snr, cfg.payload_bytes);
      const RateOption& opt = table.option(assigned);
      adaptive += model.goodput_bps(opt, snr, cfg.payload_bytes);
      auto& tel = out.per_tag[static_cast<std::size_t>(i)];
      tel.assigned_rate_index_sum += assigned;
      RT_OBS_OBSERVE(kAssignedRateIndex, static_cast<double>(assigned));
      // Short stop-and-wait exchange at the assignment: delivery is a
      // Bernoulli draw at the model's packet-success probability.
      const double p_ok = model.packet_success(opt, snr, cfg.payload_bytes);
      for (int pkt = 0; pkt < cfg.arq_packets_per_tag; ++pkt) {
        ++tel.packets_attempted;
        bool delivered = false;
        int attempts = 0;
        while (!delivered && attempts < cfg.arq_max_attempts) {
          ++attempts;
          delivered = arq_rng.uniform(0.0, 1.0) < p_ok;
        }
        if (delivered) ++tel.packets_delivered;
        const auto retries = static_cast<std::uint64_t>(attempts - 1);
        tel.arq_retries += retries;
        RT_OBS_COUNT(kMacArqRetries, retries);
      }
    }
    adaptive /= static_cast<double>(num_tags);

    // Baseline: one network-wide rate the worst tag can sustain.
    const double worst = *std::min_element(snrs.begin(), snrs.end());
    const auto& base_opt = model.best_option(table, worst, cfg.payload_bytes);
    double baseline = 0.0;
    for (const double snr : snrs) baseline += model.goodput_bps(base_opt, snr, cfg.payload_bytes);
    baseline /= static_cast<double>(num_tags);

    sum_adaptive += adaptive;
    sum_baseline += baseline;
  }
  out.mean_adaptive_bps = sum_adaptive / cfg.trials;
  out.mean_baseline_bps = sum_baseline / cfg.trials;
  out.mean_discovery_rounds = sum_rounds / cfg.trials;
  return out;
}

}  // namespace rt::mac
