// rx_decode: a serial reader decoding coded 8 Kbps frames in a closed loop
// of one. Frames are coded and rendered once in set-up, so the timed loop
// holds only receiver and decoder work: demodulate_into (soft output) up
// to the CRC verdict of decode_soft_into.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "coding/coded_frame.h"
#include "common/rng.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "rtbench/workloads.h"
#include "sim/channel.h"
#include "sim/link_sim.h"

namespace rtbench {

namespace {

// split_seed streams under the run seed.
constexpr std::uint64_t kWorkloadTag = 1;
constexpr std::uint64_t kTagStream = 0;
constexpr std::uint64_t kPayloadStream = 1;
constexpr std::uint64_t kPadStream = 2;
constexpr std::uint64_t kNoiseStream = 3;

constexpr std::size_t kPayloadBits = 32 * 8;
constexpr int kMaxPadSlots = 2;
// The 8 Kbps waterfall: raw BER falls from a few percent to zero.
constexpr double kSnrDb[] = {18.0, 20.0, 22.0, 24.0, 26.0};
constexpr int kSnrCount = static_cast<int>(std::size(kSnrDb));
constexpr int kCodeCount = 2;  // CC(7,1/2) and RS(63,47), alternating
constexpr int kFramesPerCell = 6;  // per (SNR, code) pair

struct Frame {
  rt::sig::IqWaveform rx;             ///< received waveform, never modified
  std::vector<std::uint8_t> payload;  ///< ground-truth info bits
  int code = 0;
  int payload_slots = 0;
  std::size_t coded_bits = 0;
  double airtime_s = 0.0;
};

struct State {
  rt::phy::PhyParams params = rt::phy::PhyParams::rate_8kbps();
  std::optional<rt::phy::Demodulator> demod;
  std::vector<rt::coding::CodedFrameCodec> codecs;
  std::vector<Frame> frames;
};

std::vector<rt::coding::CodedFrameCodec> make_codecs() {
  rt::coding::CodedFrameConfig cc;
  cc.code = rt::coding::CodeDescriptor::convolutional(7);
  rt::coding::CodedFrameConfig rs;
  rs.code = rt::coding::CodeDescriptor::reed_solomon(63, 47);
  return {rt::coding::CodedFrameCodec(cc), rt::coding::CodedFrameCodec(rs)};
}

std::unique_ptr<State> setup(const RunConfig& cfg, int frames) {
  auto st = std::make_unique<State>();
  const auto& p = st->params;
  const auto tag = rt::bench::realistic_tag(p, rt::split_seed(cfg.seed, kWorkloadTag, kTagStream));
  st->demod.emplace(p, rt::sim::train_offline_model(p, tag, {0.0, 20.0}, 3));
  st->codecs = make_codecs();

  std::vector<rt::sim::ChannelRealization> channels;
  for (const double snr : kSnrDb) {
    rt::sim::ChannelConfig ch;
    ch.snr_override_db = snr;
    channels.push_back(rt::sim::Channel(p, tag, ch).make_realization());
  }

  const rt::phy::Modulator mod(p);
  rt::phy::ModulatorWorkspace mws;
  rt::phy::PacketSchedule sched;
  rt::coding::CodedFrameWorkspace cws;
  rt::lcm::SynthScratch synth;
  std::vector<std::uint8_t> coded;
  // One fixed frame geometry for both codes, as a reader with a fixed slot
  // count expects: the shorter coded frame is zero-filled to the longer
  // one. Every frame then has the same airtime and receiver cost, so frame
  // times form one mode instead of one per code.
  std::size_t frame_bits = 0;
  for (const auto& codec : st->codecs)
    frame_bits = std::max(frame_bits, codec.coded_bits(kPayloadBits));
  for (int i = 0; i < frames; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    Frame f;
    f.code = i % kCodeCount;
    f.payload.resize(kPayloadBits);
    rt::Rng(rt::split_seed(cfg.seed, kPayloadStream, idx)).fill_bits(f.payload);
    {
      const Tracer::Scope s(cfg.tracer, "coding.encode", i);
      st->codecs[static_cast<std::size_t>(f.code)].encode_into(f.payload, cws, coded);
    }
    f.coded_bits = coded.size();
    coded.resize(frame_bits, 0);
    {
      const Tracer::Scope s(cfg.tracer, "phy.modulate", i);
      mod.modulate_into(coded, mws, sched);
    }
    rt::Rng pad_rng(rt::split_seed(cfg.seed, kPadStream, idx));
    const double pad_s = static_cast<double>(pad_rng.uniform_int(0, kMaxPadSlots)) * p.slot_s;
    for (auto& firing : sched.firings) firing.time_s += pad_s;
    f.payload_slots = sched.layout.payload_slots;
    f.airtime_s = sched.duration_s;
    rt::Rng noise(rt::split_seed(cfg.seed, kNoiseStream, idx));
    auto& channel = channels[static_cast<std::size_t>((i / kCodeCount) % kSnrCount)];
    {
      const Tracer::Scope s(cfg.tracer, "sim.synthesize", i);
      channel.synthesize_into(sched.firings, pad_s + sched.duration_s + p.symbol_duration_s(),
                              &noise, synth, f.rx);
    }
    st->frames.push_back(std::move(f));
  }
  return st;
}

rt::phy::DemodOptions demod_options(const rt::phy::PhyParams& p) {
  rt::phy::DemodOptions o;
  o.soft_output = true;
  o.search_limit = static_cast<std::size_t>(kMaxPadSlots + 2) * p.samples_per_slot();
  return o;
}

/// Receiver scratch plus the stage-replay objects of the traced run.
struct Reader {
  explicit Reader(const rt::phy::PhyParams& p)
      : constellation(p.bits_per_axis, p.use_q_channel), options(demod_options(p)) {}
  rt::phy::Constellation constellation;
  rt::sig::Scrambler scrambler{};
  rt::phy::DemodOptions options;
  rt::phy::DemodWorkspace dws;
  rt::phy::DemodResult result;
  rt::coding::CodedFrameWorkspace cws;
  rt::sig::IqWaveform rx;
};

/// Demodulator::demodulate_into replayed through the public stage calls,
/// one span per stage. Must stay bit-identical to demodulate_into (checked
/// on every frame).
void replay_demodulate(const State& st, Reader& r, int payload_slots, Tracer* tracer,
                       std::int64_t item) {
  const auto& p = st.params;
  const auto& demod = *st.demod;
  auto& out = r.result;
  auto& ws = r.dws;
  const Tracer::Scope whole(tracer, "phy.demodulate", item);
  out.bits.clear();
  out.soft_bits.clear();
  out.equalizer_metric = 0.0;
  {
    const Tracer::Scope s(tracer, "phy.preamble_detect", item);
    out.detection = demod.preamble().detect(r.rx, r.options.search_limit, ws.preamble);
  }
  out.preamble_found = out.detection.found;
  if (!out.preamble_found) return;
  {
    const Tracer::Scope s(tracer, "phy.preamble_correct", item);
    demod.preamble().correct_in_place(r.rx, out.detection);
  }
  const auto layout = rt::phy::FrameLayout::for_params(p, payload_slots);
  const std::size_t frame_start = out.detection.start_sample;
  {
    const Tracer::Scope s(tracer, "phy.train", item);
    rt::phy::OnlineTrainer::train_into(p, demod.offline_model(), layout, r.rx, frame_start,
                                       ws.trained, ws.training);
  }
  {
    const Tracer::Scope s(tracer, "phy.dfe", item);
    const rt::phy::DfeEqualizer eq(p, ws.trained);
    if (!ws.histories_valid || !(ws.histories_params == p) || !(ws.histories_layout == layout)) {
      ws.histories = rt::phy::Demodulator::initial_payload_histories(p, layout);
      ws.histories_params = p;
      ws.histories_layout = layout;
      ws.histories_valid = true;
    }
    const std::size_t payload_begin =
        frame_start + static_cast<std::size_t>(layout.payload_begin()) * p.samples_per_slot();
    eq.equalize_into(r.rx, payload_begin, payload_slots, ws.histories, ws.eq, ws.eq_result,
                     true);
    out.equalizer_metric = ws.eq_result.final_metric;
  }
  const Tracer::Scope s(tracer, "phy.unmap", item);
  for (const auto& sym : ws.eq_result.symbols) r.constellation.unmap_into(sym, out.bits);
  r.scrambler.apply_in_place(out.bits);
  out.soft_bits.assign(ws.eq_result.soft_bits.begin(), ws.eq_result.soft_bits.end());
  r.scrambler.apply_sign_in_place(out.soft_bits);
  for (std::size_t i = 0; i < out.soft_bits.size() && i < out.bits.size(); ++i) {
    const float mag = std::fabs(out.soft_bits[i]);
    out.soft_bits[i] = out.bits[i] != 0 ? -mag : mag;
  }
}

struct Verdict {
  bool found = false;
  bool crc_ok = false;
  bool payload_ok = false;
  std::size_t bit_errors = 0;  ///< a lost frame counts every info bit
  std::size_t erasures = 0;
  bool operator==(const Verdict&) const = default;
};

/// Decodes frame `i` into `r`: the timed reader step. Returns the verdict
/// and the step's host time in ms.
Verdict decode_frame(const State& st, Reader& r, std::size_t i, Tracer* tracer, double& ms) {
  const Frame& f = st.frames[i];
  r.rx = f.rx;  // the reader owns its sample buffer; copying it is not reader work
  const auto item = static_cast<std::int64_t>(i);
  Verdict v;
  const auto t0 = Clock::now();
  if (tracer == nullptr)
    st.demod->demodulate_into(r.rx, f.payload_slots, r.options, r.dws, r.result);
  else
    replay_demodulate(st, r, f.payload_slots, tracer, item);
  rt::coding::CodedFrameResult dec;
  v.found = r.result.preamble_found && r.result.soft_bits.size() >= f.coded_bits;
  if (v.found) {
    const Tracer::Scope s(tracer, "coding.decode", item);
    dec = st.codecs[static_cast<std::size_t>(f.code)].decode_soft_into(
        std::span<const float>(r.result.soft_bits).first(f.coded_bits), kPayloadBits, r.cws);
  }
  ms = seconds_since(t0) * 1e3;
  if (!v.found) {
    v.bit_errors = kPayloadBits;
    return v;
  }
  v.crc_ok = dec.crc_ok;
  v.erasures = dec.erasures_used;
  for (std::size_t b = 0; b < kPayloadBits; ++b) v.bit_errors += dec.payload[b] != f.payload[b];
  v.payload_ok = v.bit_errors == 0;
  return v;
}

}  // namespace

void run_rx_decode(const RunConfig& cfg, Report& report) {
  const bool traced = cfg.tracer != nullptr;
  const int frames = cfg.probe ? kSnrCount * kCodeCount : kSnrCount * kCodeCount * kFramesPerCell;
  EndToEnd e2e;
  const auto st =
      repeated_setup(traced ? 1 : kSetupReps, [&] { return setup(cfg, frames); }, e2e.setup_s);
  const std::size_t n = st->frames.size();
  Reader reader(st->params);

  // Reference verdicts and receiver outputs from demodulate_into, one pass.
  std::vector<Verdict> first(n);
  std::vector<rt::phy::DemodResult> reference(traced ? n : 0);
  for (std::size_t i = 0; i < n; ++i) {
    double ms = 0.0;
    first[i] = decode_frame(*st, reader, i, nullptr, ms);
    if (traced) reference[i] = reader.result;
  }

  // Timed closed loop over whole passes of the frame set.
  std::vector<double> traced_ms;
  bool repeat_ok = true;
  bool replay_ok = true;
  const auto pass = [&](Tracer* tracer, std::vector<double>& out) {
    double pass_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double ms = 0.0;
      const Verdict v = decode_frame(*st, reader, i, tracer, ms);
      out.push_back(ms);
      pass_ms += ms;
      report.count_attempt();
      repeat_ok = repeat_ok && v == first[i];
      if (tracer != nullptr)
        replay_ok = replay_ok && reader.result.preamble_found == reference[i].preamble_found &&
                    reader.result.bits == reference[i].bits &&
                    reader.result.soft_bits == reference[i].soft_bits;
    }
    if (tracer == nullptr) e2e.pass_throughput.push_back(static_cast<double>(n) / (pass_ms / 1e3));
  };
  run_passes(cfg, pass, e2e.step_ms, traced_ms);

  // Accuracy over the distinct frame set (a pure function of the seed).
  Ratio delivered{0, static_cast<double>(n)};
  Ratio ber{0, static_cast<double>(n * kPayloadBits)};
  Ratio misses{0, static_cast<double>(n)};
  Ratio crc_fail{0, 0};
  double undetected = 0.0;
  double erasures = 0.0;
  double airtime_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Verdict& v = first[i];
    delivered.num += v.crc_ok && v.payload_ok;
    ber.num += static_cast<double>(v.bit_errors);
    misses.num += !v.found;
    if (v.found) {
      crc_fail.den += 1;
      crc_fail.num += !v.crc_ok;
      undetected += v.crc_ok && !v.payload_ok;
      erasures += static_cast<double>(v.erasures);
    }
    airtime_ms += st->frames[i].airtime_s * 1e3 / static_cast<double>(n);
  }
  e2e.delivery = delivered;

  report.check("rx_decode: every repeated decode equals the first pass", repeat_ok);
  if (traced)
    report.check("rx_decode: stage replay bits and LLRs equal demodulate_into", replay_ok);

  const Timing t = summarize(e2e.step_ms);
  char airtime[64];
  std::snprintf(airtime, sizeof(airtime), "frame airtime %.2f ms; ", airtime_ms);
  const std::string note = airtime + tail_note(t, "ms");
  report.add("frame_ms_p50", t.p50, "ms", t.n, note);
  report.add("frame_ms_p90", t.p90, "ms", t.n, note);
  report.add("frame_airtime_ms", airtime_ms, "ms", n);
  report.add_ratio("frame_delivery_ratio", delivered, n);
  report.add_ratio("info_ber", ber, n);
  add_end_to_end(e2e, !traced && !cfg.probe, "frame", "frame", report);

  if (traced) {
    add_trace_overhead(e2e.step_ms, traced_ms, report);
    report.add_ratio("phy.preamble_miss_ratio", misses, n, true);
    report.add_ratio("coding.crc_fail_ratio", crc_fail, n, true);
    report.add("coding.undetected_errors", undetected, "count", n, "CRC passed, payload wrong",
               true);
    report.add("coding.rs_erasures_used", erasures, "count", n, {}, true);
  }
}

}  // namespace rtbench
