// TDMA scheduling and RFID-style tag discovery (paper section 4.4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/narrow.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace rt::mac {

/// Round-robin TDMA: each registered tag gets one uplink slot per round.
class TdmaScheduler {
 public:
  void register_tag(std::uint8_t tag_id) {
    RT_ENSURE(!has_tag(tag_id), "tag already registered");
    tags_.push_back(tag_id);
  }

  [[nodiscard]] bool has_tag(std::uint8_t tag_id) const {
    return std::find(tags_.begin(), tags_.end(), tag_id) != tags_.end();
  }

  [[nodiscard]] std::size_t tag_count() const { return tags_.size(); }

  /// Tag owning uplink slot `slot` (slots cycle round-robin).
  [[nodiscard]] std::uint8_t owner(std::size_t slot) const {
    RT_ENSURE(!tags_.empty(), "no tags registered");
    return tags_[slot % tags_.size()];
  }

  /// Airtime fraction each tag receives.
  [[nodiscard]] double airtime_share() const {
    RT_ENSURE(!tags_.empty(), "no tags registered");
    return 1.0 / static_cast<double>(tags_.size());
  }

 private:
  std::vector<std::uint8_t> tags_;
};

/// Seed-stream window of discovery: round k draws from sub-stream
/// kDiscoveryStreamBase + k, clear of placement (b = 0) and of the
/// fleet's data rounds (fleet/campaign.h).
inline constexpr std::uint64_t kDiscoveryStreamBase = std::uint64_t{1} << 20;
inline constexpr int kMaxDiscoveryRounds = 4096;

struct DiscoveryResult {
  int rounds = 0;
  std::uint64_t collision_slots = 0;  ///< slots answered by two or more tags
};

/// Framed slotted-ALOHA discovery, as in RFID inventory: each round the
/// reader opens a frame of max(remaining, 2) response slots (the backlog
/// is known exactly here; a real reader estimates it); undiscovered tags
/// pick one uniformly; singleton slots are discovered and acknowledged.
/// Round k draws from split_seed(seed, stream, kDiscoveryStreamBase + k),
/// so the outcome is a pure function of (tags, seed, stream). Writes the
/// 1-based round each tag was found in to found_round[tag]; other
/// entries are left untouched.
[[nodiscard]] inline DiscoveryResult discover_tags(std::span<const std::uint32_t> tags,
                                                   std::uint64_t seed, std::uint64_t stream,
                                                   std::span<std::uint32_t> found_round) {
  for (const std::uint32_t id : tags)
    RT_ENSURE(id < found_round.size(), "tag id outside found_round");
  DiscoveryResult out;
  std::vector<std::uint32_t> remaining(tags.begin(), tags.end());
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> slot_of;
  std::vector<std::uint32_t> occupancy;
  while (!remaining.empty() && out.rounds < kMaxDiscoveryRounds) {
    ++out.rounds;
    const auto round = narrow_cast<std::uint32_t>(out.rounds);
    Rng rng(split_seed(seed, stream, kDiscoveryStreamBase + round));
    const std::size_t frame = std::max<std::size_t>(remaining.size(), 2);
    occupancy.assign(frame, 0);
    slot_of.resize(remaining.size());
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      slot_of[i] = narrow_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame) - 1));
      ++occupancy[slot_of[i]];
    }
    next.clear();
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (occupancy[slot_of[i]] == 1)
        found_round[remaining[i]] = round;
      else
        next.push_back(remaining[i]);
    }
    for (const std::uint32_t n : occupancy)
      if (n > 1) ++out.collision_slots;
    remaining.swap(next);
  }
  RT_ENSURE(remaining.empty(), "discovery did not converge within kMaxDiscoveryRounds");
  RT_OBS_COUNT(kMacDiscoveryRounds, static_cast<std::uint64_t>(out.rounds));
  return out;
}

}  // namespace rt::mac
