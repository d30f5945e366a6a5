// stream_sparse: one StreamingReceiver over a long stream at a low frame
// duty cycle, pushed in fixed 4096-sample chunks as fast as it accepts
// them. Half the frames sit between idle-noise gaps, half between tag-like
// garbage gaps, so the preamble scan and the start-of-frame check do most
// of the work and training little.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "rtbench/workloads.h"
#include "sim/link_sim.h"
#include "stream/sim_source.h"
#include "stream/streaming_receiver.h"

namespace rtbench {

namespace {

constexpr std::uint64_t kWorkloadTag = 2;
constexpr std::size_t kChunk = 4096;  // ~99 ms of airtime at 8 Kbps
constexpr double kSnrDb = 20.0;
constexpr int kPacketsPerGapKind = 6;
// Gaps around ~0.18 s frames. The noise half is the longer one, so scan
// chunks over idle noise (a tight cost cluster) hold the chunk-time median,
// while frame chunks and the costlier, more varied garbage chunks (gate
// crossings, SOF checks) fill the tail.
constexpr int kNoiseGapSlots = 4000;    // 2 s
constexpr int kGarbageGapSlots = 1000;  // 0.5 s

struct Emitted {
  std::uint64_t start = 0;
  std::vector<std::uint8_t> bits;
  bool operator==(const Emitted&) const = default;
};

struct Collect final : rt::stream::FrameSink {
  std::vector<Emitted> frames;
  void on_frame(const rt::stream::StreamFrame& f) override {
    frames.push_back({f.start_sample, {f.bits.begin(), f.bits.end()}});
  }
};

struct State {
  std::optional<rt::sim::LinkSimulator> sim;
  rt::stream::StreamTruth truth;  ///< both scenarios back to back
  std::size_t frame_samples = 0;
  double airtime_s = 0.0;
  rt::stream::StreamOptions options;
};

std::unique_ptr<State> setup(const RunConfig& cfg) {
  const auto seed = [&](std::uint64_t stream) {
    return rt::split_seed(cfg.seed, kWorkloadTag, stream);
  };
  auto st = std::make_unique<State>();
  const auto p = rt::phy::PhyParams::rate_8kbps();
  const auto tag = rt::bench::realistic_tag(p, seed(0));
  rt::sim::ChannelConfig ch;
  ch.snr_override_db = kSnrDb;
  ch.noise_seed = seed(1);
  rt::sim::SimOptions so;
  so.seed = seed(2);
  st->sim.emplace(p, tag, ch, so);

  // The garbage-gap half comes from a second simulator on the same channel
  // (fresh payloads and noise, shared offline model).
  rt::sim::ChannelConfig ch_b = ch;
  ch_b.noise_seed = seed(3);
  rt::sim::SimOptions so_b;
  so_b.seed = seed(4);
  so_b.shared_offline_model = st->sim->demodulator().offline_model();
  const rt::sim::LinkSimulator sim_b(p, tag, ch_b, so_b);

  rt::stream::StreamScenario sc;
  sc.packets = cfg.probe ? 1 : kPacketsPerGapKind;
  sc.payload_bytes = 32;
  sc.gap_slots = cfg.probe ? 200 : kNoiseGapSlots;
  sc.lead_in_slots = 200;
  sc.tail_slots = 200;
  sc.gap = rt::stream::StreamScenario::Gap::kNoise;
  sc.gap_seed = seed(5);
  {
    st->truth = rt::stream::build_stream(*st->sim, sc);
    sc.gap = rt::stream::StreamScenario::Gap::kGarbage;
    sc.gap_slots = cfg.probe ? 200 : kGarbageGapSlots;
    sc.gap_seed = seed(6);
    auto b = rt::stream::build_stream(sim_b, sc);
    const std::uint64_t offset = st->truth.waveform.size();
    const std::size_t bit_offset = st->truth.payload_bits.size();
    for (auto f : b.frames) {
      f.start_sample += offset;
      f.packet_offset += offset;
      f.first_payload_bit += bit_offset;
      st->truth.frames.push_back(f);
    }
    st->truth.payload_bits.insert(st->truth.payload_bits.end(), b.payload_bits.begin(),
                                  b.payload_bits.end());
    st->truth.waveform.samples.insert(st->truth.waveform.samples.end(),
                                      b.waveform.samples.begin(), b.waveform.samples.end());
  }
  const auto layout = rt::phy::FrameLayout::for_params(p, st->truth.payload_slots);
  st->frame_samples = static_cast<std::size_t>(layout.total_slots()) * p.samples_per_slot();
  st->airtime_s = static_cast<double>(st->truth.waveform.size()) / p.sample_rate_hz;
  st->options.payload_slots = st->truth.payload_slots;
  return st;
}

/// True when [begin, end) overlaps a ground-truth frame's samples.
bool overlaps_frame(const State& st, std::uint64_t begin, std::uint64_t end) {
  for (const auto& f : st.truth.frames)
    if (begin < f.start_sample + st.frame_samples && f.packet_offset < end) return true;
  return false;
}

struct Pass {
  std::vector<Emitted> frames;
  rt::stream::StreamStats stats;
  double host_s = 0.0;
};

/// Pushes the whole stream through a fresh receiver, then flushes.
Pass push_stream(const State& st, Tracer* tracer, std::vector<double>& chunk_ms) {
  rt::stream::StreamingReceiver rx(st.sim->demodulator(), st.options);
  Collect sink;
  const std::span<const rt::sig::Complex> all(st.truth.waveform.samples);
  Pass pass;
  for (std::size_t off = 0; off < all.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, all.size() - off);
    const char* name = tracer == nullptr        ? ""
                       : overlaps_frame(st, off, off + len) ? "stream.frame_chunk"
                                                            : "stream.scan_chunk";
    const auto t0 = Clock::now();
    {
      const Tracer::Scope s(tracer, name, static_cast<std::int64_t>(off / kChunk));
      rx.push_samples(all.subspan(off, len), sink);
    }
    const double s = seconds_since(t0);
    chunk_ms.push_back(s * 1e3);
    pass.host_s += s;
  }
  const auto t0 = Clock::now();
  {
    const Tracer::Scope s(tracer, "stream.flush", -1);
    rx.flush(sink);
  }
  pass.host_s += seconds_since(t0);
  pass.frames = std::move(sink.frames);
  pass.stats = rx.stats();
  return pass;
}

bool same_stats(const rt::stream::StreamStats& a, const rt::stream::StreamStats& b) {
  return a.samples_pushed == b.samples_pushed && a.frames_decoded == b.frames_decoded &&
         a.sof_rejects == b.sof_rejects && a.decode_rejects == b.decode_rejects &&
         a.truncated_frames == b.truncated_frames;
}

}  // namespace

void run_stream_sparse(const RunConfig& cfg, Report& report) {
  const bool traced = cfg.tracer != nullptr;
  EndToEnd e2e;
  const auto st = repeated_setup(traced ? 1 : kSetupReps, [&] { return setup(cfg); }, e2e.setup_s);
  const std::size_t chunks = (st->truth.waveform.size() + kChunk - 1) / kChunk;

  Pass first;
  std::vector<double> rtf;
  std::vector<double> traced_ms;
  bool repeat_ok = true;
  bool have_first = false;
  const auto pass_fn = [&](Tracer* tracer, std::vector<double>& out) {
    Pass pass = push_stream(*st, tracer, out);
    report.count_attempt(chunks);
    if (tracer == nullptr) {
      e2e.pass_throughput.push_back(static_cast<double>(chunks) / pass.host_s);
      rtf.push_back(st->airtime_s / pass.host_s);
    }
    if (!have_first) {
      first = std::move(pass);
      have_first = true;
    } else {
      repeat_ok = repeat_ok && pass.frames == first.frames && same_stats(pass.stats, first.stats);
    }
  };
  run_passes(cfg, pass_fn, e2e.step_ms, traced_ms);
  report.check("stream_sparse: every pass emits the frames and stats of the first", repeat_ok);

  // Match emitted frames to the ground truth by preamble start (within one
  // slot); each truth frame matches at most once.
  const auto p = st->sim->params();
  const auto tol = static_cast<std::uint64_t>(p.samples_per_slot());
  const std::size_t n_truth = st->truth.frames.size();
  std::vector<bool> matched(n_truth, false);
  Ratio recall{0, static_cast<double>(n_truth)};
  Ratio payload_ber{0, 0};
  double false_alarms = 0.0;
  for (const auto& e : first.frames) {
    bool hit = false;
    for (std::size_t k = 0; k < n_truth && !hit; ++k) {
      const auto& t = st->truth.frames[k];
      const std::uint64_t d =
          e.start > t.start_sample ? e.start - t.start_sample : t.start_sample - e.start;
      if (matched[k] || d > tol) continue;
      matched[k] = hit = true;
      recall.num += 1;
      payload_ber.den += static_cast<double>(t.payload_bits);
      for (std::size_t b = 0; b < t.payload_bits; ++b)
        payload_ber.num += b >= e.bits.size() ||
                           e.bits[b] != st->truth.payload_bits[t.first_payload_bit + b];
    }
    false_alarms += !hit;
  }
  e2e.delivery = recall;

  const Timing t = summarize(e2e.step_ms);
  const std::string note = "per 4096-sample push; " + tail_note(t, "ms");
  char airtime[64];
  std::snprintf(airtime, sizeof(airtime), "stream airtime %.3f s, median over passes",
                st->airtime_s);
  report.add("stream_realtime_factor", median(rtf), "x", rtf.size(), airtime);
  report.add("chunk_ms_p90", t.p90, "ms", t.n, note);
  report.add_ratio("stream_frame_recall", recall, n_truth);
  report.add("stream_false_alarms", false_alarms, "count", first.frames.size(), "emitted frames");
  report.add_ratio("stream_payload_ber", payload_ber, static_cast<std::size_t>(recall.num));
  add_end_to_end(e2e, !traced && !cfg.probe, "chunk", "chunk", report);

  if (traced) {
    add_trace_overhead(e2e.step_ms, traced_ms, report);
    const auto& s = first.stats;
    report.add("stream.sof_rejects", static_cast<double>(s.sof_rejects), "count", 1, {}, true);
    report.add("stream.decode_rejects", static_cast<double>(s.decode_rejects), "count", 1, {},
               true);
    report.add("stream.truncated_frames", static_cast<double>(s.truncated_frames), "count", 1, {},
               true);
  }
}

}  // namespace rtbench
