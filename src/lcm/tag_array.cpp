#include "lcm/tag_array.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/kernels.h"
#include "obs/trace.h"

namespace rt::lcm {

namespace {

/// Bitwise equality (0.0 and -0.0 differ, NaN equals itself): the test
/// that two LC states evolve identically.
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Yaw stretches the effective LC time constants (off-axis retardance) and
/// imposes an illumination gradient across the module row. These are the
/// "received symbol deviation" effects of section 7.2.1 that channel
/// training must absorb.
LcTimings yawed_timings(const LcTimings& base, double yaw_rad, double skew) {
  const double s = std::sin(yaw_rad);
  LcTimings t = base;
  const double stretch = 1.0 + skew * s * s;
  t.tau_charge_s *= stretch;
  t.tau_relax_s *= stretch;
  return t;
}

}  // namespace

TagArray::TagArray(const TagConfig& config) : cfg_(config) {
  cfg_.validate();
  Rng rng(cfg_.seed);
  const auto timings = yawed_timings(cfg_.timings, cfg_.yaw_rad, cfg_.yaw_timing_skew);
  const double grad = 0.2 * std::sin(cfg_.yaw_rad);  // illumination gradient across the array
  for (int m = 0; m < cfg_.dsm_order; ++m) {
    Heterogeneity het = cfg_.heterogeneity;
    i_modules_.emplace_back(cfg_.bits_per_axis, 0.0, het, rng, timings);
    q_modules_.emplace_back(cfg_.bits_per_axis, rt::deg_to_rad(45.0), het, rng, timings);
    (void)m;
  }
  // Apply the yaw illumination gradient as a deterministic per-module gain
  // tilt by re-seeding gains is not possible post-construction; instead we
  // fold it into synthesis via module_gain_.
  module_gain_i_.resize(i_modules_.size());
  module_gain_q_.resize(q_modules_.size());
  const int l = cfg_.dsm_order;
  for (int m = 0; m < l; ++m) {
    const double pos = l > 1 ? (static_cast<double>(m) / (l - 1) - 0.5) : 0.0;
    module_gain_i_[m] = 1.0 + grad * pos;
    module_gain_q_[m] = 1.0 + grad * pos;
  }

  // Flatten the pixel graph into the SoA bank (I group then Q group,
  // module-major). Static parameters are read back from the constructed
  // pixels so the bank sees exactly the RNG-perturbed values.
  const auto n_px = static_cast<std::size_t>(2 * l * cfg_.bits_per_axis);
  bank_.drive.assign(n_px, 0.0);
  bank_.c.assign(n_px, 0.0);
  bank_.s.assign(n_px, 0.0);
  bank_.tau_charge.resize(n_px);
  bank_.tau_relax.resize(n_px);
  bank_.w.resize(n_px);
  bank_.axis.resize(n_px);
  bank_.tau_slow = timings.tau_slow_s;
  bank_.tau_memory = timings.tau_memory_s;
  bank_.k_mem = timings.memory_coupling;
  std::size_t p = 0;
  for (const auto* group : {&i_modules_, &q_modules_}) {
    for (const auto& mod : *group) {
      for (const auto& px : mod.pixels()) {
        const auto& pp = px.params();
        bank_.tau_charge[p] = pp.timings.tau_charge_s;
        bank_.tau_relax[p] = pp.timings.tau_relax_s;
        // Matches Pixel::step: gain * area rounds once up front; the
        // polarization axis is e^{j 2 (theta_b + eps)}.
        bank_.w[p] = pp.gain * pp.area;
        bank_.axis[p] = std::polar(1.0, 2.0 * (pp.polarizer_angle_rad + pp.angle_error_rad));
        ++p;
      }
    }
  }
}

void TagArray::reset() {
  for (auto& m : i_modules_) m.reset();
  for (auto& m : q_modules_) m.reset();
  std::fill(bank_.drive.begin(), bank_.drive.end(), 0.0);
  std::fill(bank_.c.begin(), bank_.c.end(), 0.0);
  std::fill(bank_.s.begin(), bank_.s.end(), 0.0);
}

void TagArray::apply_level(bool is_i, int module, int level) {
  const int bits = cfg_.bits_per_axis;
  RT_ENSURE(level >= 0 && level < (1 << bits), "drive level out of range");
  const std::size_t base = bank_base(is_i, module);
  for (int i = 0; i < bits; ++i) {
    const int bit = bits - 1 - i;
    bank_.drive[base + static_cast<std::size_t>(i)] = ((level >> bit) & 1) != 0 ? 1.0 : 0.0;
  }
}

void TagArray::expand_events(std::span<const Firing> schedule, double fs,
                             SynthScratch& scratch) const {
  RT_ENSURE(std::is_sorted(schedule.begin(), schedule.end(),
                           [](const Firing& a, const Firing& b) { return a.time_s < b.time_s; }),
            "firing schedule must be sorted by time");
  // Expand firings into set-level / release events.
  using Event = SynthScratch::Event;
  auto& events = scratch.events;
  events.clear();
  events.reserve(schedule.size() * 4);
  std::uint32_t seq = 0;
  for (const auto& f : schedule) {
    RT_ENSURE(f.module >= 0 && f.module < cfg_.dsm_order, "firing module out of range");
    if (f.level_i >= 0) {
      events.push_back({f.time_s, f.module, seq++, true, f.level_i});
      events.push_back({f.time_s + cfg_.charge_s, f.module, seq++, true, 0});
    }
    if (f.level_q >= 0) {
      events.push_back({f.time_s, f.module, seq++, false, f.level_q});
      events.push_back({f.time_s + cfg_.charge_s, f.module, seq++, false, 0});
    }
  }
  // (t, seq) ordering reproduces stable_sort-by-t exactly -- seq breaks
  // ties in insertion order -- while std::sort stays allocation-free
  // (libstdc++ stable_sort grabs a temporary merge buffer per call).
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  });
  // Event times quantized to sample indices up front: comparing raw
  // floating-point times against i/fs makes an event land one sample late
  // or early depending on rounding of the schedule's time sums, which
  // would shift the whole waveform relative to the receiver's slot grid.
  auto& event_sample = scratch.event_sample;
  event_sample.resize(events.size());
  for (std::size_t e = 0; e < events.size(); ++e)
    event_sample[e] = static_cast<std::size_t>(std::llround(events[e].t * fs));
}

bool TagArray::synthesize_into(std::span<const Firing> schedule, double fs, double duration_s,
                               SynthScratch& scratch, sig::IqWaveform& out,
                               const SynthPrefix* prefix) {
  RT_TRACE_SPAN("lc_synthesize");
  RT_ENSURE(fs > 0.0 && duration_s > 0.0, "sample rate and duration must be positive");
  expand_events(schedule, fs, scratch);
  out.sample_rate_hz = fs;
  // Every sample is written below, so the resize needs no zero fill.
  out.samples.resize(static_cast<std::size_t>(std::ceil(duration_s * fs)));
  return render(fs, scratch, out.samples, prefix);
}

void TagArray::render_prefix(std::span<const Firing> schedule, double fs, std::size_t samples,
                             SynthScratch& scratch, SynthPrefix& out) {
  RT_ENSURE(fs > 0.0 && samples > 0, "sample rate and prefix length must be positive");
  expand_events(schedule, fs, scratch);
  out.fs = fs;
  save_state(out.start);
  out.samples.resize(samples);
  render(fs, scratch, out.samples, nullptr);
  save_state(out.end);
  // The events are sorted by sample, so the ones the render applied are a
  // leading run.
  const auto applied = static_cast<std::size_t>(
      std::lower_bound(scratch.event_sample.begin(), scratch.event_sample.end(), samples) -
      scratch.event_sample.begin());
  out.events.assign(scratch.events.begin(), scratch.events.begin() + applied);
  out.event_sample.assign(scratch.event_sample.begin(), scratch.event_sample.begin() + applied);
}

std::size_t TagArray::splice_point(const SynthPrefix& prefix, double fs,
                                   const SynthScratch& scratch, std::size_t n) const {
  const auto& events = scratch.events;
  const auto& event_sample = scratch.event_sample;
  const std::size_t k = prefix.events.size();
  if (fs != prefix.fs || k == 0 || events.size() < k ||
      event_sample[0] < prefix.event_sample[0])
    return n;
  // Every prefix event must land exactly `shift` samples later; a
  // one-sample slip anywhere means a full render.
  const std::size_t shift = event_sample[0] - prefix.event_sample[0];
  const std::size_t end = shift + prefix.samples.size();
  if (end > n) return n;
  using Event = SynthScratch::Event;
  const auto same = [](const Event& a, const Event& b) {
    return a.module == b.module && a.is_i == b.is_i && a.level == b.level;
  };
  const auto same_lane = [](const Event& a, const Event& b) {
    return a.module == b.module && a.is_i == b.is_i;
  };
  // Events sharing a sample are applied back to back before that sample
  // is stepped. Adding the pad to their times can swap two of them (they
  // are sorted by time, and equal-sample times differ in rounding); that
  // leaves the drive unchanged when the group drives distinct lanes.
  for (std::size_t a = 0; a < k;) {
    std::size_t b = a + 1;
    while (b < k && prefix.event_sample[b] == prefix.event_sample[a]) ++b;
    for (std::size_t e = a; e < b; ++e)
      if (event_sample[e] != prefix.event_sample[a] + shift) return n;
    const auto first = prefix.events.begin() + static_cast<std::ptrdiff_t>(a);
    const auto last = prefix.events.begin() + static_cast<std::ptrdiff_t>(b);
    const auto mine = events.begin() + static_cast<std::ptrdiff_t>(a);
    if (!std::equal(first, last, mine, same)) {
      for (auto x = first; x != last; ++x)
        if (std::any_of(x + 1, last, [&](const Event& y) { return same_lane(*x, y); }))
          return n;
      if (!std::is_permutation(first, last, mine, same)) return n;
    }
    a = b;
  }
  // Nothing else may fire inside the spliced span.
  if (k < events.size() && event_sample[k] < end) return n;
  return shift;
}

bool TagArray::render(double fs, SynthScratch& scratch, std::span<sig::Complex> out,
                      const SynthPrefix* prefix) {
  const std::size_t n = out.size();
  const auto& events = scratch.events;
  const auto& event_sample = scratch.event_sample;
  const std::size_t splice_at = prefix != nullptr ? splice_point(*prefix, fs, scratch, n) : n;
  const double dt = 1.0 / fs;
  bool spliced = false;
  std::size_t next_event = 0;
  std::size_t i = 0;
  while (i < n) {
    // The splice replays the prefix's own render: the same events from
    // the same bank state, so the same samples and end state.
    if (i == splice_at && state_equals(prefix->start)) {
      std::copy(prefix->samples.begin(), prefix->samples.end(), out.begin() + i);
      bank_.drive = prefix->end.drive;
      bank_.c = prefix->end.c;
      bank_.s = prefix->end.s;
      next_event = prefix->events.size();
      i += prefix->samples.size();
      spliced = true;
      continue;
    }
    while (next_event < events.size() && event_sample[next_event] <= i) {
      const auto& e = events[next_event];
      apply_level(e.is_i, e.module, e.level);
      ++next_event;
    }
    // Drive is now constant until the next event, the splice point or the
    // end.
    std::size_t end = n;
    if (next_event < events.size()) end = std::min(end, event_sample[next_event]);
    if (splice_at > i) end = std::min(end, splice_at);
    render_stretch(i, end, dt, scratch, out.data());
    i = end;
  }
  return spliced;
}

void TagArray::render_stretch(std::size_t i, std::size_t end, double dt, SynthScratch& scratch,
                              sig::Complex* out) {
  const std::size_t n_px = bank_.c.size();
  const kernels::LcBankParams bp{bank_.tau_charge.data(), bank_.tau_relax.data(),
                                 bank_.tau_slow, bank_.tau_memory, bank_.k_mem};
  // Cap runs so the per-sample alignment rows stay cache-resident
  // (kMaxRun * n_px doubles). Splitting a run is free: lc_step_run over k
  // then j samples is the same op sequence as k + j.
  constexpr std::size_t kMaxRun = 128;
  const auto step = [&](std::size_t first, std::size_t run) {
    scratch.c_run.resize(run * n_px);
    // All 2*L*bits director ODEs advance in one batched kernel call.
    kernels::lc_step_run(n_px, run, dt, bank_.drive.data(), bank_.c.data(), bank_.s.data(),
                         scratch.c_run.data(), bp);
    for (std::size_t t = 0; t < run; ++t) out[first + t] = emit(scratch.c_run.data() + t * n_px);
  };
  while (i < end) {
    // Fixed-point probe: step one sample, and if the bank state comes back
    // bitwise unchanged, every later step of this constant-drive stretch
    // repeats it exactly (same inputs, same deterministic kernel), so the
    // rest of the stretch is that sample.
    scratch.c_probe.assign(bank_.c.begin(), bank_.c.end());
    scratch.s_probe.assign(bank_.s.begin(), bank_.s.end());
    step(i, 1);
    if (bitwise_equal(bank_.c, scratch.c_probe) && bitwise_equal(bank_.s, scratch.s_probe)) {
      std::fill(out + i + 1, out + end, out[i]);
      return;
    }
    const std::size_t run = std::min(end - i, kMaxRun);
    if (run > 1) step(i + 1, run - 1);
    i += run;
  }
}

sig::Complex TagArray::emit(const double* crow) const {
  // Replays the old object walk's exact accumulation order (pixels into a
  // module sum, module gain, then the I group followed by the Q group), so
  // a scalar-backend build stays bit-identical to the pre-SoA pipeline.
  const int bits = cfg_.bits_per_axis;
  sig::Complex acc{};
  std::size_t p = 0;
  for (std::size_t m = 0; m < i_modules_.size(); ++m) {
    sig::Complex macc{};
    for (int b = 0; b < bits; ++b, ++p)
      macc += bank_.w[p] * (2.0 * crow[p] - 1.0) * bank_.axis[p];
    acc += module_gain_i_[m] * macc;
  }
  for (std::size_t m = 0; m < q_modules_.size(); ++m) {
    sig::Complex macc{};
    for (int b = 0; b < bits; ++b, ++p)
      macc += bank_.w[p] * (2.0 * crow[p] - 1.0) * bank_.axis[p];
    acc += module_gain_q_[m] * macc;
  }
  return acc;
}

void TagArray::save_state(BankState& out) const {
  out.drive = bank_.drive;
  out.c = bank_.c;
  out.s = bank_.s;
}

bool TagArray::state_equals(const BankState& other) const {
  return bitwise_equal(bank_.drive, other.drive) && bitwise_equal(bank_.c, other.c) &&
         bitwise_equal(bank_.s, other.s);
}

double TagArray::drive_energy(std::span<const Firing> schedule) const {
  // Charge moved per firing ~ sum of driven pixel areas; drive duration is
  // constant (charge_s), so energy ~ sum of normalized levels.
  double total = 0.0;
  const double max_level = static_cast<double>((1 << cfg_.bits_per_axis) - 1);
  for (const auto& f : schedule) {
    if (f.level_i > 0) total += static_cast<double>(f.level_i) / max_level;
    if (f.level_q > 0) total += static_cast<double>(f.level_q) / max_level;
  }
  return total * cfg_.charge_s;
}

std::vector<sig::Complex> rotation_free_response(const TagConfig& config,
                                                 std::span<const Firing> schedule, double fs,
                                                 double duration_s) {
  TagArray tag(config);
  SynthScratch scratch;
  sig::IqWaveform active;
  tag.synthesize_into(schedule, fs, duration_s, scratch, active);
  tag.reset();
  sig::IqWaveform idle;
  tag.synthesize_into({}, fs, duration_s, scratch, idle);
  std::vector<sig::Complex> out(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) out[i] = active[i] - idle[i];
  return out;
}

}  // namespace rt::lcm
