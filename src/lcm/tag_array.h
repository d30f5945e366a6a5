// The full tag-side optical antenna: an array of 2L LCM modules over the
// retroreflector, split into an I group (back polarizers at 0deg) and a Q
// group (45deg), per the paper's PQAM design (section 4.2.2).
//
// The array is a time-stepped simulator: the PHY modulator schedules
// firings (module + drive level + time); synthesize_into() integrates every LC
// cell and emits the complex two-PDR baseband waveform the reader would
// see at unit link gain. Roll misalignment, link gain, noise and frontend
// effects are applied downstream (sim / frontend layers).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "lcm/module.h"
#include "signal/waveform.h"

namespace rt::lcm {

struct TagConfig {
  int dsm_order = 8;            ///< L: modules per polarization group
  int bits_per_axis = 2;        ///< log2(sqrt(P)): pixels per module; P = 4^bits_per_axis
  double slot_s = rt::ms(0.5);  ///< T: DSM interleaving time
  double charge_s = rt::ms(0.5);  ///< drive-on duration per firing (tau_1)
  LcTimings timings{};
  Heterogeneity heterogeneity{};
  double yaw_rad = 0.0;         ///< yaw misalignment; distorts LC response off-axis
  double yaw_timing_skew = 0.52; ///< strength of yaw-induced time-constant stretch
  std::uint64_t seed = 1;       ///< pixel heterogeneity draw

  [[nodiscard]] int pqam_order() const { return 1 << (2 * bits_per_axis); }
  [[nodiscard]] int levels_per_axis() const { return 1 << bits_per_axis; }
  /// DSM symbol duration W = L * T.
  [[nodiscard]] double symbol_duration_s() const {
    return static_cast<double>(dsm_order) * slot_s;
  }

  void validate() const {
    RT_ENSURE(dsm_order >= 1 && dsm_order <= 64, "DSM order must be in [1, 64]");
    RT_ENSURE(bits_per_axis >= 1 && bits_per_axis <= 4, "bits per axis must be in [1, 4]");
    RT_ENSURE(slot_s > 0.0 && charge_s > 0.0, "timings must be positive");
    RT_ENSURE(charge_s <= symbol_duration_s(), "charge duration cannot exceed W");
    timings.validate();
  }
};

/// One scheduled firing: at `time_s`, module `module` of each polarization
/// group is driven with the given level for TagConfig::charge_s seconds.
/// Level -1 means "do not touch this axis" (used by single-channel
/// baselines and calibration patterns).
struct Firing {
  double time_s = 0.0;
  int module = 0;   ///< 0 .. L-1
  int level_i = 0;  ///< 0 .. 2^bits_per_axis - 1, or -1 to skip
  int level_q = 0;
};

/// Reusable event-expansion scratch for TagArray::synthesize_into(). A
/// scratch held across packets stops allocating once it has seen the
/// largest schedule; every buffer is fully overwritten per synthesis.
struct SynthScratch {
  struct Event {
    double t;
    int module;
    std::uint32_t seq;  ///< insertion index: sort ties resolve in push order
    bool is_i;
    int level;  ///< level to apply (release = 0)
  };
  std::vector<Event> events;
  std::vector<std::size_t> event_sample;
  std::vector<double> c_run;  ///< per-sample LC alignment rows for one segment
  std::vector<double> c_probe;  ///< (c, s) before a fixed-point probe step
  std::vector<double> s_probe;
};

/// The pixel bank's dynamic state at a sample boundary, in bank order
/// [I modules x pixels, then Q modules x pixels].
struct BankState {
  std::vector<double> drive;  ///< 1.0 driven / 0.0 released
  std::vector<double> c;      ///< LC alignment
  std::vector<double> s;      ///< LC surface memory
};

/// A rendered schedule prefix that TagArray::synthesize_into() splices into
/// later renders instead of integrating it again: the first samples of a
/// render at unit gain, the events that fired inside them, and the bank
/// state before and after. Built once by TagArray::render_prefix() and
/// read-only afterwards, so any number of threads may splice one. Only a
/// TagArray built from the same TagConfig may splice it.
struct SynthPrefix {
  double fs = 0.0;
  std::vector<sig::Complex> samples;
  std::vector<SynthScratch::Event> events;  ///< in application order, all before samples.size()
  std::vector<std::size_t> event_sample;
  BankState start;  ///< state the render started from
  BankState end;    ///< state after samples.size() samples
};

class TagArray {
 public:
  explicit TagArray(const TagConfig& config);

  /// Runs the LC simulation over [0, duration_s) with the given firing
  /// schedule (must be sorted by time) and writes the complex baseband
  /// waveform at sample rate `fs` into `out` (capacity reused), expanding
  /// events into `scratch`. The waveform includes the static bias of
  /// relaxed pixels (a DC term the receiver regression removes). Starts
  /// from the tag's current LC state -- callers reusing one TagArray
  /// across packets must reset() first (reset() provably restores the
  /// as-constructed state, so reset+synthesize_into matches a fresh tag).
  ///
  /// Two shortcuts keep the output bit-identical to integrating every
  /// sample. A constant-drive stretch whose first step leaves the bank
  /// state bitwise unchanged is a fixed point, so its remaining samples
  /// repeat that step's sample. And when `prefix` is given and the
  /// schedule's first events are the prefix's events shifted by one whole
  /// number of samples, with no other event inside the shifted span and
  /// the bank in the prefix's start state when the span begins, the
  /// cached samples and end state are copied in and the render resumes
  /// after them. Any mismatch renders in full. Returns whether the prefix
  /// was spliced.
  bool synthesize_into(std::span<const Firing> schedule, double fs, double duration_s,
                       SynthScratch& scratch, sig::IqWaveform& out,
                       const SynthPrefix* prefix = nullptr);

  /// Renders the first `samples` samples of `schedule` from the tag's
  /// current state into `out`, keeping the events that fire before
  /// `samples` and the bank state before and after, for later splicing.
  void render_prefix(std::span<const Firing> schedule, double fs, std::size_t samples,
                     SynthScratch& scratch, SynthPrefix& out);

  /// Resets every LC cell to the relaxed state.
  void reset();

  [[nodiscard]] const TagConfig& config() const { return cfg_; }

  /// Per-symbol tag energy in joules-equivalent units: each driven pixel
  /// consumes charge proportional to its area and drive duration. Used by
  /// the power microbenchmark (section 7.2.2): the DSM symbol length, not
  /// the bit rate, fixes the power draw.
  [[nodiscard]] double drive_energy(std::span<const Firing> schedule) const;

  [[nodiscard]] const std::vector<Module>& i_modules() const { return i_modules_; }
  [[nodiscard]] const std::vector<Module>& q_modules() const { return q_modules_; }

 private:
  /// Struct-of-arrays mirror of every pixel's LC state and static
  /// parameters, in bank order [I modules x pixels, then Q modules x
  /// pixels]. synthesize_into() advances ALL cells per sample through one
  /// batched kernels::lc_step call instead of walking the Module/Pixel
  /// object graph; the objects stay authoritative for construction (RNG
  /// draw order, per-pixel params exposed to tests) and for the emulator
  /// paths that still step modules directly.
  struct PixelBank {
    std::vector<double> drive;       ///< 1.0 driven / 0.0 released, per pixel
    std::vector<double> c;           ///< LC alignment state
    std::vector<double> s;           ///< LC surface-memory state
    std::vector<double> tau_charge;  ///< per-pixel (module-granular) time constants
    std::vector<double> tau_relax;
    std::vector<double> w;           ///< gain * area amplitude weight
    std::vector<sig::Complex> axis;  ///< e^{j 2 theta} polarization axis
    double tau_slow = 0.0;           ///< uniform across the tag
    double tau_memory = 0.0;
    double k_mem = 0.0;
  };

  /// First bank index of a module's pixel run.
  [[nodiscard]] std::size_t bank_base(bool is_i, int module) const {
    const auto l = static_cast<std::size_t>(cfg_.dsm_order);
    const auto bits = static_cast<std::size_t>(cfg_.bits_per_axis);
    return ((is_i ? 0 : l) + static_cast<std::size_t>(module)) * bits;
  }

  /// Writes the binary decomposition of `level` into the drive lanes of
  /// one module (pixel 0 carries the top bit, mirroring Module::step).
  void apply_level(bool is_i, int module, int level);

  /// Expands `schedule` into sorted set-level / release events and their
  /// sample indices at rate `fs` (scratch.events / scratch.event_sample).
  void expand_events(std::span<const Firing> schedule, double fs, SynthScratch& scratch) const;

  /// The event loop: renders samples [0, out.size()) of the expanded
  /// events in `scratch`, splicing `prefix` in where it matches.
  bool render(double fs, SynthScratch& scratch, std::span<sig::Complex> out,
              const SynthPrefix* prefix);

  /// Sample at which `prefix` splices into the expanded events in
  /// `scratch`, or `n` when its events do not match.
  [[nodiscard]] std::size_t splice_point(const SynthPrefix& prefix, double fs,
                                         const SynthScratch& scratch, std::size_t n) const;

  /// Renders the constant-drive stretch [i, end) into `out`.
  void render_stretch(std::size_t i, std::size_t end, double dt, SynthScratch& scratch,
                      sig::Complex* out);

  /// The received sample of one row of LC alignments.
  [[nodiscard]] sig::Complex emit(const double* crow) const;

  void save_state(BankState& out) const;
  [[nodiscard]] bool state_equals(const BankState& other) const;

  TagConfig cfg_;
  std::vector<Module> i_modules_;
  std::vector<Module> q_modules_;
  std::vector<double> module_gain_i_;  ///< yaw illumination gradient per module
  std::vector<double> module_gain_q_;
  PixelBank bank_;
};

/// Rotation-free response to `schedule`: the waveform of a fresh tag built
/// from `config` minus that tag's idle (never-fired) baseline over the same
/// [0, duration_s). This is the modulated signal alone -- the offline
/// preamble and sync references, and the signal power that defines SNR.
[[nodiscard]] std::vector<sig::Complex> rotation_free_response(const TagConfig& config,
                                                               std::span<const Firing> schedule,
                                                               double fs, double duration_s);

}  // namespace rt::lcm
