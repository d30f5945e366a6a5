// Allocation-regression test for the packet pipeline.
//
// Replaces the global allocator with a counting shim and proves that after
// one warm-up packet the entire TX -> channel -> RX hot path
// (LinkSimulator::run_packet through a reused PacketWorkspace) performs
// ZERO heap allocations. This is the contract the workspace refactor
// exists to provide; any new allocation on the steady-state path fails
// this test. Lives in its own binary because the operator new/delete
// replacement is process-global.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/units.h"
#include "sim/coded_link.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"
#include "stream/sim_source.h"
#include "stream/streaming_receiver.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

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

TEST(AllocationRegression, CounterObservesOrdinaryAllocations) {
  g_allocs.store(0);
  g_counting.store(true);
  {
    std::vector<int> v(100);
    v.push_back(1);
  }
  g_counting.store(false);
  EXPECT_GT(g_allocs.load(), 0u) << "the allocator shim is not active";
}

TEST(AllocationRegression, SteadyStatePacketPipelineIsAllocationFree) {
  // The default receiver shape: Q channel on, per-packet online training,
  // K-branch DFE without state merging, scrambled payload, AWGN at moderate SNR.
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 14.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  const LinkSimulator sim(p, p.tag_config(), ch, so);

  PacketWorkspace ws;
  // Warm-up: one pass over the packet indices the measured phase replays,
  // so every buffer has reached its steady-state capacity.
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto out = sim.run_packet(i, 8, ws);
    ASSERT_TRUE(out.preamble_found) << "packet " << i << " must decode for full-path coverage";
  }

  g_allocs.store(0);
  g_counting.store(true);
  std::size_t errors = 0;
  bool all_found = true;
  bool estimates_finite = true;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto out = sim.run_packet(i, 8, ws);
    all_found = all_found && out.preamble_found;
    // The closed rate-adaptation loop reads this per packet; producing it
    // must cost no allocations and always be finite.
    estimates_finite = estimates_finite && std::isfinite(out.snr_estimate_db);
    errors += out.bit_errors;
  }
  g_counting.store(false);

  EXPECT_TRUE(all_found);
  EXPECT_TRUE(estimates_finite) << "per-packet SNR estimate must be finite";
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the steady-state packet pipeline allocated on the heap (" << g_allocs.load()
      << " allocations across 3 packets; total bit errors " << errors << ")";
}

TEST(AllocationRegression, SteadyStatePixelCalibrationPipelineIsAllocationFree) {
  // 16-PQAM with pixel calibration: a second LS solve per packet, on its
  // own scratch beside the cached training factor.
  auto p = fast_params();
  p.bits_per_axis = 2;
  p.pixel_calibration = true;
  auto tag = p.tag_config();
  tag.heterogeneity = {0.06, 0.0, 0.0};
  ChannelConfig ch;
  ch.snr_override_db = 30.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  const LinkSimulator sim(p, tag, ch, so);

  PacketWorkspace ws;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto out = sim.run_packet(i, 8, ws);
    ASSERT_TRUE(out.preamble_found) << "packet " << i << " must decode for full-path coverage";
  }

  g_allocs.store(0);
  g_counting.store(true);
  bool all_found = true;
  for (std::uint64_t i = 0; i < 3; ++i)
    all_found = sim.run_packet(i, 8, ws).preamble_found && all_found;
  g_counting.store(false);

  EXPECT_TRUE(all_found);
  EXPECT_TRUE(ws.demod.trained.has_pixel_gains()) << "the pixel-calibration solve did not run";
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the steady-state pixel-calibration pipeline allocated on the heap ("
      << g_allocs.load() << " allocations across 3 packets)";
}

TEST(AllocationRegression, SteadyStateMergingSoftDfeIsAllocationFree) {
  // The DFE's heaviest shape: state merging (full candidate sort, merge
  // keys read off the survivor trail) with soft output (per-step LLRs on
  // the trail, traced back once per packet).
  auto p = fast_params();
  p.bits_per_axis = 2;
  p.merge_equalizer_states = true;
  ChannelConfig ch;
  ch.snr_override_db = 14.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  so.export_soft_bits = true;
  const LinkSimulator sim(p, p.tag_config(), ch, so);

  PacketWorkspace ws;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto out = sim.run_packet(i, 8, ws);
    ASSERT_TRUE(out.preamble_found) << "packet " << i << " must decode for full-path coverage";
  }

  g_allocs.store(0);
  g_counting.store(true);
  bool all_found = true;
  std::size_t llrs = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto out = sim.run_packet(i, 8, ws);
    all_found = out.preamble_found && all_found;
    llrs += out.soft_bits.size();
  }
  g_counting.store(false);

  EXPECT_TRUE(all_found);
  EXPECT_EQ(llrs, 3u * 8u * 8u) << "soft output must cover every payload bit";
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the steady-state merging soft DFE allocated on the heap (" << g_allocs.load()
      << " allocations across 3 packets)";
}

TEST(AllocationRegression, SteadyStateCodedPacketPipelineIsAllocationFree) {
  // The coded frame path on top of the packet pipeline: whiten -> FEC ->
  // interleave -> TX -> channel -> RX -> deinterleave -> soft/hard decode
  // -> CRC, through the same reused PacketWorkspace. Covers both code
  // kinds and both decode modes so the Viterbi trellis, the RS scratch,
  // and the GMD erasure ladder all run under the counting allocator.
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 14.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  so.export_soft_bits = true;
  const LinkSimulator sim(p, p.tag_config(), ch, so);

  coding::CodedFrameConfig cc_cfg;
  cc_cfg.code = coding::CodeDescriptor::convolutional(7);
  coding::CodedFrameConfig rs_cfg;
  rs_cfg.code = coding::CodeDescriptor::reed_solomon(63, 47);
  const CodedLink cc(sim, cc_cfg);
  const CodedLink rs(sim, rs_cfg);

  // One workspace per frame shape (the bench's usage: each campaign owns
  // its workspace). Alternating coded sizes through a single workspace
  // would legitimately rebuild the layout-keyed caches every packet.
  PacketWorkspace cc_ws;
  PacketWorkspace rs_ws;  // soft and hard share one shape, hence one ws
  const auto run_once = [&](std::size_t& errors) {
    for (std::uint64_t i = 0; i < 2; ++i) {
      const auto a = cc.run_packet(i, 8, cc_ws, CodedLink::DecodeMode::kSoft);
      const auto b = rs.run_packet(i, 8, rs_ws, CodedLink::DecodeMode::kSoft);
      const auto c = rs.run_packet(i, 8, rs_ws, CodedLink::DecodeMode::kHard);
      ASSERT_TRUE(a.preamble_found && b.preamble_found && c.preamble_found)
          << "packet " << i << " must decode for full-path coverage";
      errors += a.info_bit_errors + b.info_bit_errors + c.info_bit_errors;
    }
  };

  // Warm-up replays the exact packet indices of the measured phase, so
  // the deterministic decode paths (GMD retries included) are identical.
  std::size_t warm_errors = 0;
  run_once(warm_errors);

  g_allocs.store(0);
  g_counting.store(true);
  std::size_t errors = 0;
  run_once(errors);
  g_counting.store(false);

  EXPECT_EQ(errors, warm_errors) << "replayed packets must be bit-identical";
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the steady-state coded packet pipeline allocated on the heap (" << g_allocs.load()
      << " allocations across 6 coded frames)";
}

TEST(AllocationRegression, SteadyStateStreamingReceiverIsAllocationFree) {
  const auto p = fast_params();
  ChannelConfig ch;
  ch.snr_override_db = 20.0;
  ch.noise_seed = 7;
  SimOptions so;
  so.seed = 42;
  so.offline_yaws_deg = {0.0};
  const LinkSimulator sim(p, p.tag_config(), ch, so);

  stream::StreamScenario sc;
  sc.packets = 3;
  sc.payload_bytes = 8;
  sc.gap = stream::StreamScenario::Gap::kNoise;
  const auto truth = stream::build_stream(sim, sc);

  stream::StreamOptions opts;
  opts.payload_slots = truth.payload_slots;
  stream::StreamingReceiver rx(sim.demodulator(), opts);
  struct CountSink final : stream::FrameSink {
    std::uint64_t frames = 0;
    void on_frame(const stream::StreamFrame&) override { ++frames; }
  } sink;
  const auto run_once = [&] {
    const std::span<const sig::Complex> all(truth.waveform.samples);
    for (std::size_t off = 0; off < all.size(); off += 777)
      rx.push_samples(all.subspan(off, std::min<std::size_t>(777, all.size() - off)), sink);
    rx.flush(sink);
  };

  // Warm-up stream: every scratch buffer (scan spans, decode window, the
  // inner packet-pipeline workspace) reaches steady-state capacity.
  run_once();
  ASSERT_EQ(sink.frames, 3u) << "warm-up stream must decode for full-path coverage";

  g_allocs.store(0);
  g_counting.store(true);
  run_once();
  g_counting.store(false);

  EXPECT_EQ(sink.frames, 6u);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the steady-state streaming receiver allocated on the heap (" << g_allocs.load()
      << " allocations across one stream of 3 frames)";
}

}  // namespace
}  // namespace rt::sim
