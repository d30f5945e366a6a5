// Warehouse sensor fleet: the IoT scenario the paper's introduction
// motivates -- many battery-free tags on shelves, one ceiling reader.
//
// Runs the full MAC stack: slotted-ALOHA tag discovery, SNR-based rate
// adaptation from the paper's operating points, TDMA polling, and
// RS-coded, CRC-checked stop-and-wait delivery of sensor readings over the
// real PHY simulator.
#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "coding/code_descriptor.h"
#include "common/bitio.h"
#include "common/rng.h"
#include "common/units.h"
#include "mac/goodput.h"
#include "mac/rate_table.h"
#include "mac/tdma.h"
#include "sim/coded_link.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"

namespace {

/// One shelf tag: identity, placement and its synthetic sensor readout.
struct ShelfTag {
  std::uint8_t id;
  double distance_m;
  double roll_deg;

  [[nodiscard]] std::vector<std::uint8_t> sensor_reading(rt::Rng& rng) const {
    // temperature (x10), humidity, battery-free harvest level
    return {static_cast<std::uint8_t>(180 + rng.uniform_int(0, 60)),
            static_cast<std::uint8_t>(30 + rng.uniform_int(0, 40)),
            static_cast<std::uint8_t>(rng.uniform_int(0, 255))};
  }
};

/// Small fast PHY shared by all tags in this demo (a full 8 Kbps stack per
/// tag works too, it just takes longer to train).
rt::phy::PhyParams demo_phy() {
  rt::phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

constexpr int kMaxAttempts = 4;  ///< stop-and-wait attempts per reading

}  // namespace

int main() {
  rt::Rng rng(2024);
  const auto budget = rt::optics::LinkBudget::wide_beam();
  const auto table = rt::mac::RateTable::paper_default();
  const rt::mac::GoodputModel goodput;

  // Deploy 6 tags across the aisle.
  std::vector<ShelfTag> tags;
  for (std::uint8_t i = 1; i <= 6; ++i)
    tags.push_back({i, rng.uniform(1.0, 4.3), rng.uniform(0.0, 180.0)});

  // Phase 1: discovery (framed slotted ALOHA, adaptive frame size).
  std::vector<std::uint32_t> ids;
  for (const auto& t : tags) ids.push_back(t.id);
  std::vector<std::uint32_t> found_round(tags.size() + 1, 0);  // indexed by id (1-based)
  const auto discovery = rt::mac::discover_tags(ids, rng.engine()(), 0, found_round);
  std::printf("discovered %zu tags in %d rounds (%llu collision slots)\n\n", ids.size(),
              discovery.rounds, static_cast<unsigned long long>(discovery.collision_slots));

  // Phase 2: per-tag rate assignment from measured SNR.
  std::printf("%-5s %-10s %-9s %-26s\n", "tag", "dist (m)", "SNR (dB)", "assigned rate");
  std::map<std::uint8_t, const rt::mac::RateOption*> assignment;
  for (const auto& t : tags) {
    const double snr = budget.snr_db_at(t.distance_m);
    const auto& opt = goodput.best_option(table, snr, 16);
    assignment[t.id] = &opt;
    std::printf("%-5u %-10.2f %-9.1f %-26s\n", t.id, t.distance_m, snr, opt.name.c_str());
  }

  // Phase 3: TDMA polling round -- every tag uploads one sensor frame
  // through the real PHY at its own simulated pose. The slot owner
  // identifies the tag, so a frame carries only the reading.
  // Slots follow discovery order: by round found, then by id.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> order;
  for (const auto& t : tags) order.emplace_back(found_round[t.id], t.id);
  std::sort(order.begin(), order.end());
  rt::mac::TdmaScheduler tdma;
  for (const auto& [round, id] : order) tdma.register_tag(id);
  std::printf("\nTDMA round (airtime share %.1f%% per tag):\n", 100.0 * tdma.airtime_share());

  const auto phy = demo_phy();
  const auto offline = rt::sim::train_offline_model(phy, phy.tag_config());
  int delivered = 0;
  for (std::size_t slot = 0; slot < tags.size(); ++slot) {
    const auto id = tdma.owner(slot);
    const auto& tag = *std::find_if(tags.begin(), tags.end(),
                                    [&](const ShelfTag& t) { return t.id == id; });
    rt::sim::ChannelConfig ch;
    ch.budget = budget;
    ch.pose.distance_m = tag.distance_m;
    ch.pose.roll_rad = rt::deg_to_rad(tag.roll_deg);
    ch.noise_seed = 100 + id;
    rt::sim::SimOptions so;
    so.offline_yaws_deg = {0.0};
    so.shared_offline_model = offline;
    so.export_soft_bits = true;
    const rt::sim::LinkSimulator sim(phy, phy.tag_config(), ch, so);
    const rt::sim::CodedLink link(sim, {.code = rt::coding::CodeDescriptor::reed_solomon(15, 11)});
    rt::sim::PacketWorkspace ws;

    // Stop-and-wait: attempt i is the tag link's coded frame i.
    const auto bits = rt::bytes_to_bits(tag.sensor_reading(rng));
    std::vector<std::uint8_t> reading;
    int attempts = 0;
    while (attempts < kMaxAttempts && reading.empty()) {
      const auto r = link.send_bits(static_cast<std::uint64_t>(attempts++), bits, ws);
      if (r.crc_ok) reading = rt::bits_to_bytes(r.payload);
    }
    std::printf("  slot %zu tag %u: %s (%d attempt%s)", slot, id,
                reading.empty() ? "LOST" : "delivered", attempts, attempts == 1 ? "" : "s");
    if (!reading.empty()) {
      ++delivered;
      std::printf("  T=%.1fC RH=%u%%", reading[0] / 10.0, reading[1]);
    }
    std::printf("\n");
  }
  std::printf("\nround complete: %d/%zu readings delivered\n", delivered, tags.size());
  return delivered == static_cast<int>(tags.size()) ? 0 : 1;
}
