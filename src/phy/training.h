// Two-stage channel training (paper section 4.3.3).
//
// Offline: pulse fingerprints r(x) -- the full set of history-conditioned
// templates for one module -- are collected at several orientations x,
// stacked into the matrix E = [r(x_1) ... r(x_n)], and the leading S left
// singular vectors are kept as invariant bases (truncated Karhunen-Loeve
// expansion: the best rank-S linear approximation in MSE).
//
// Online (per packet): only the S complex coefficients per module are
// solved, by least squares against the known lower-triangular training
// field -- 2*S*L unknowns from a few thousand received samples, cheap
// enough for real time and tolerant of the per-packet channel state
// (orientation, illumination, LCM heterogeneity).
#pragma once

#include <span>
#include <vector>

#include "common/narrow.h"
#include "linalg/least_squares.h"
#include "linalg/matrix.h"
#include "phy/frame.h"
#include "phy/params.h"
#include "phy/pulse_model.h"
#include "signal/waveform.h"

namespace rt::phy {

/// The offline-trained invariant basis set. Rows span the concatenated
/// fingerprint domain (2^V histories x W-samples); columns are the S bases.
/// `sigma` holds the corresponding singular values: the online solve uses
/// them as a prior (a weak basis should not absorb much energy from one
/// noisy packet).
struct OfflineModel {
  linalg::RealMatrix bases;
  std::vector<double> sigma;

  [[nodiscard]] int rank() const { return narrow_cast<int>(bases.cols()); }
  [[nodiscard]] std::size_t domain() const { return bases.rows(); }
};

class OfflineTrainer {
 public:
  /// Collects fingerprints through each source (one per orientation) and
  /// extracts `rank` bases. Every module contributes a column per
  /// orientation (modules share bases; per-module variation is captured by
  /// the online coefficients).
  [[nodiscard]] static OfflineModel train(const PhyParams& params,
                                          std::span<const WaveformSource> sources, int rank);

  /// Builds an OfflineModel directly from already-collected fingerprint
  /// banks (used by tests and by trace replay).
  [[nodiscard]] static OfflineModel train_from_banks(const PhyParams& params,
                                                     std::span<const PulseBank> banks, int rank);
};

/// Reusable scratch for the per-packet online training solve.
///
/// Only the right-hand side depends on the received samples, so the rest
/// is cached and rebuilt when its inputs change:
/// - the training/pixel schedules, keyed on (PhyParams, FrameLayout);
/// - the training factorization -- the bases transpose `bases_cm`, the
///   design `a_cm` with its ridge rows, and its QR in `ls` -- keyed on
///   (PhyParams, FrameLayout, ridge, OfflineModel). The model is held by
///   value in `factor_model` and compared bit for bit, so a copied,
///   mutated or reallocated model never reuses a stale factor.
/// The rhs, the solved coefficients and the pixel-calibration buffers
/// (with their own `pixel_ls`) are fully overwritten per packet.
struct TrainingWorkspace {
  std::vector<TrainingFiring> schedule;
  std::vector<PixelTrainingCycle> pixel_schedule;
  bool schedule_valid = false;
  PhyParams schedule_params;
  FrameLayout schedule_layout;

  bool factor_valid = false;
  PhyParams factor_params;
  FrameLayout factor_layout;
  double factor_ridge = 0.0;
  OfflineModel factor_model;          ///< model the cached factor was built from
  std::vector<double> a_cm;           ///< (n + unknowns) x unknowns design, column-major
  std::vector<double> bases_cm;       ///< rank x domain transpose of OfflineModel::bases
  linalg::LsWorkspace<double> ls;     ///< QR of a_cm (cached) and its solve scratch

  std::vector<double> b_re;           ///< real part of the rhs
  std::vector<double> b_im;           ///< imaginary part of the rhs
  std::vector<double> g_re;           ///< solved coefficients (real)
  std::vector<double> g_im;           ///< solved coefficients (imag)
  linalg::RealMatrix pixel_a;         ///< pixel-calibration design
  std::vector<double> pixel_b;        ///< pixel-calibration rhs
  linalg::LsWorkspace<double> pixel_ls;  ///< pixel-calibration QR solve scratch
  std::vector<Complex> pixel_gains;   ///< solved per-pixel gains
};

class OnlineTrainer {
 public:
  /// Fits the per-module complex basis coefficients to the (rotation-
  /// corrected) received training field and rebuilds the pulse bank for
  /// the equalizer in place. `corrected_rx` must be aligned so that
  /// sample index `frame_start` is frame slot 0.
  ///
  /// `ridge` is the Tikhonov regularization weight (relative to the mean
  /// squared column norm of the design matrix): it keeps the higher-order
  /// bases from amplifying noise when the training field barely excites
  /// them -- the "avoid overfitting to preserve noise tolerance" balance
  /// of section 4.3.3.
  ///
  /// The design and its QR are factored once per (params, layout, ridge,
  /// model) and cached in `ws`; each packet only projects its rhs onto
  /// the cached Q and back-substitutes, so a reused workspace returns the
  /// same bank as a fresh one.
  static void train_into(const PhyParams& params, const OfflineModel& model,
                         const FrameLayout& layout, const sig::IqWaveform& corrected_rx,
                         std::size_t frame_start, PulseBank& bank, TrainingWorkspace& ws,
                         double ridge = 1e-4);

  /// Second-stage per-pixel gain estimation from the calibration rounds
  /// (runs automatically from train_into() when the frame carries them).
  static void calibrate_pixel_gains_into(const PhyParams& params, const FrameLayout& layout,
                                         const sig::IqWaveform& corrected_rx,
                                         std::size_t frame_start, PulseBank& bank,
                                         TrainingWorkspace& ws);
};

/// Builds a PulseBank straight from ground-truth fingerprints measured at
/// the operating orientation (an "oracle" receiver with perfect channel
/// knowledge) -- the upper bound online training is judged against.
[[nodiscard]] inline PulseBank oracle_bank(const PhyParams& params, const WaveformSource& source) {
  return collect_fingerprints(params, source);
}

}  // namespace rt::phy
