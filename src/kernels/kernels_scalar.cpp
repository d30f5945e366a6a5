// rt-lint: no-preconditions (leaf math kernels: size-0 is valid, pointers
// are pre-validated by the owning stages, and a branch per call would sit
// on the hottest loops in the repo)
// Scalar reference backend. These bodies are the SPECIFICATION: each one
// reproduces, operation for operation, the sequential loop it replaced in
// the pipeline (see the per-kernel notes), so a scalar build is
// bit-identical to the pre-kernel-layer pipeline. The AVX2 backend
// (kernels_avx2.cpp) must match these bit-for-bit on elementwise kernels
// and within the documented tolerance on reductions.
#include <algorithm>
#include <cmath>
#include <complex>

#include "kernels/kernels.h"

namespace rt::kernels::scalar {

namespace {
// Mirrors lcm/lc_cell.cpp: 10 us substeps keep RK4 error negligible
// against tau >= 0.1 ms.
constexpr double kMaxSubstep = 10e-6;
}  // namespace

// Replaces lcm::LcCell::step applied pixel-by-pixel: same coupled (c, s)
// RK4 with the same substep schedule, driven/released switch per pixel.
void lc_step(std::size_t n, double dt, const double* drive, double* c, double* s,
             const LcBankParams& p) {
  if (dt <= 0.0) return;
  for (std::size_t i = 0; i < n; ++i) {
    const bool driven = drive[i] != 0.0;
    const double tau_charge = p.tau_charge[i];
    const double tau_relax = p.tau_relax[i];
    double ci = c[i];
    double si = s[i];
    const auto fc = [&](double cc, double ss) {
      if (driven) {
        const double tau = tau_charge * (1.0 + p.k_mem * (1.0 - ss));
        return (1.0 - cc) / tau;
      }
      return -cc * (1.0 - cc) / tau_relax - cc / p.tau_slow;
    };
    const auto fs = [&](double cc, double ss) { return (cc - ss) / p.tau_memory; };
    double remaining = dt;
    while (remaining > 0.0) {
      const double h = std::min(remaining, kMaxSubstep);
      const double k1c = fc(ci, si);
      const double k1s = fs(ci, si);
      const double k2c = fc(ci + 0.5 * h * k1c, si + 0.5 * h * k1s);
      const double k2s = fs(ci + 0.5 * h * k1c, si + 0.5 * h * k1s);
      const double k3c = fc(ci + 0.5 * h * k2c, si + 0.5 * h * k2s);
      const double k3s = fs(ci + 0.5 * h * k2c, si + 0.5 * h * k2s);
      const double k4c = fc(ci + h * k3c, si + h * k3s);
      const double k4s = fs(ci + h * k3c, si + h * k3s);
      ci += h / 6.0 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c);
      si += h / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s);
      ci = std::clamp(ci, 0.0, 1.0);
      si = std::clamp(si, 0.0, 1.0);
      remaining -= h;
    }
    c[i] = ci;
    s[i] = si;
  }
}

// Segment form of lc_step for lcm::TagArray::synthesize_into: advances
// every pixel through t_steps consecutive samples of length dt under one
// CONSTANT drive pattern, writing the post-step alignment of sample t to
// c_out[t * n + i]. This body IS t_steps back-to-back lc_step calls plus
// one contiguous row store per sample, so it is bit-identical to the
// per-sample form by construction. The sample loop stays OUTSIDE the
// pixel loop on purpose: successive pixels are independent dependency
// chains the out-of-order core overlaps, whereas a per-pixel sample loop
// would serialize the whole segment behind one chain of divisions.
void lc_step_run(std::size_t n, std::size_t t_steps, double dt, const double* drive, double* c,
                 double* s, double* c_out, const LcBankParams& p) {
  if (dt <= 0.0) {
    // t_steps no-op lc_step calls: state untouched, every row echoes it.
    for (std::size_t t = 0; t < t_steps; ++t)
      for (std::size_t i = 0; i < n; ++i) c_out[t * n + i] = c[i];
    return;
  }
  for (std::size_t t = 0; t < t_steps; ++t) {
    // Qualified: under RT_SIMD, ADL on LcBankParams would also see the
    // rt::kernels-level `using dispatch::lc_step` and call it ambiguous.
    scalar::lc_step(n, dt, drive, c, s, p);
    double* row = c_out + t * n;
    for (std::size_t i = 0; i < n; ++i) row[i] = c[i];
  }
}

// Replaces the widely-linear fit/correction loops in phy/preamble.cpp:
// dst[i] = a*x + b*conj(x) + c. src and dst may alias (in-place correct).
void wl_transform(std::size_t n, const Complex* src, Complex* dst, Complex a, Complex b,
                  Complex c) {
  for (std::size_t i = 0; i < n; ++i) {
    const Complex x = src[i];
    dst[i] = a * x + b * std::conj(x) + c;
  }
}

// Replaces the per-sample channel gain application in sim/channel.cpp:
// x[i] *= g[i].
void cscale(std::size_t n, Complex* x, const Complex* g) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= g[i];
}

// Replaces the training design accumulation in phy/training.cpp
// (column-major form): y[i] += x[i].
void accum_real(std::size_t n, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

// Replaces the MGS projection update in linalg/least_squares.h:
// y[i] -= a * x[i].
void axpy_sub_real(std::size_t n, double a, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= a * x[i];
}

void axpy_sub_cplx(std::size_t n, Complex a, const Complex* x, Complex* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= a * x[i];
}

// Replaces the pulse reconstruction in phy/training.cpp:
// y[i] += a * x[i] with real basis samples x and complex coefficient a.
void caxpy_real(std::size_t n, Complex a, const double* x, Complex* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void split_complex(std::size_t n, const Complex* x, double* re, double* im) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
}

// Decision-feedback propagation in phy/equalizer.cpp: dst[k] = src[k] -
// sum_t tmpl_t[k], term-by-term in order. The templates arrive
// pre-weighted (pixel area x gain already multiplied in), so each term is
// one subtraction.
void dfe_residual(std::size_t n, const Complex* src, Complex* dst, const Complex* const* tmpl,
                  std::size_t n_terms) {
  for (std::size_t k = 0; k < n; ++k) {
    Complex e = src[k];
    for (std::size_t t = 0; t < n_terms; ++t) e -= tmpl[t][k];
    dst[k] = e;
  }
}

// Replaces stream::PhaseBank::score: max_k Re(rotor_k * c) over the
// split-plane rotor bank. Max is order-independent, so this reduction is
// bit-identical across backends.
double phase_score_max(std::size_t k, const double* rot_re, const double* rot_im, double c_re,
                       double c_im) {
  double best = rot_re[0] * c_re - rot_im[0] * c_im;
  for (std::size_t i = 1; i < k; ++i) {
    const double v = rot_re[i] * c_re - rot_im[i] * c_im;
    if (v > best) best = v;
  }
  return best;
}

// Replaces linalg::dot<double>: sequential left-to-right accumulation.
double dot_real(std::size_t n, const double* a, const double* b) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

// Replaces linalg::dot<Complex>: s += conj(a[i]) * b[i].
Complex cdotc(std::size_t n, const Complex* a, const Complex* b) {
  Complex s{};
  for (std::size_t i = 0; i < n; ++i) s += std::conj(a[i]) * b[i];
  return s;
}

// Plain (unconjugated) complex dot, for the row-contiguous accumulation
// in linalg::residual_norm.
Complex cdotu(std::size_t n, const Complex* a, const Complex* b) {
  Complex s{};
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

// Replaces the ridge column-norm accumulation in phy/training.cpp and
// linalg::norm<double> (caller takes the sqrt).
double sum_sq_real(std::size_t n, const double* x) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

// Replaces the rest-slot metric in phy/equalizer.cpp and
// linalg::norm<Complex> (caller takes the sqrt).
double sum_norm_cplx(std::size_t n, const Complex* x) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::norm(x[i]);
  return s;
}

// Replaces the window statistics loop of sig::correlation_centered_at:
// one pass accumulating conj(ref)*x, sum x, sum |x|^2 in that per-sample
// order.
CorrStats corr_stats(std::size_t n, const Complex* ref, const Complex* x) {
  CorrStats st{};
  for (std::size_t i = 0; i < n; ++i) {
    const Complex v = x[i];
    st.acc += std::conj(ref[i]) * v;
    st.wsum += v;
    st.wenergy += std::norm(v);
  }
  return st;
}

// Split-plane form of corr_stats for the SoA streaming scan buffers.
// conj(ref)*x expands to (rr*xr + ri*xi, rr*xi - ri*xr), which is bitwise
// identical to the interleaved std::complex product (negation and
// x - (-y) are exact).
CorrStats corr_stats_split(std::size_t n, const double* ref_re, const double* ref_im,
                           const double* x_re, const double* x_im) {
  double acc_re = 0.0;
  double acc_im = 0.0;
  double wsum_re = 0.0;
  double wsum_im = 0.0;
  double wenergy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = x_re[i];
    const double xi = x_im[i];
    acc_re += ref_re[i] * xr + ref_im[i] * xi;
    acc_im += ref_re[i] * xi - ref_im[i] * xr;
    wsum_re += xr;
    wsum_im += xi;
    wenergy += xr * xr + xi * xi;
  }
  return CorrStats{Complex{acc_re, acc_im}, Complex{wsum_re, wsum_im}, wenergy};
}

// Candidate scoring in phy/equalizer.cpp over pre-weighted templates:
// sum_k |residual[k] - sum_t tmpl_t[k]|^2.
double dfe_score(std::size_t n, const Complex* residual, const Complex* const* tmpl,
                 std::size_t n_terms) {
  double score = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex e = residual[k];
    for (std::size_t t = 0; t < n_terms; ++t) e -= tmpl[t][k];
    score += std::norm(e);
  }
  return score;
}

// Replaces the interior (no edge clipping) tap loop of sig::FirFilter:
// sum_k xw[nt-1-k] * taps[k], ascending k exactly as the original loop
// walked it. taps_rev is unused here; the AVX2 backend consumes it.
Complex fir_dot(std::size_t nt, const double* taps, const double* taps_rev, const Complex* xw) {
  static_cast<void>(taps_rev);
  Complex acc{};
  for (std::size_t k = 0; k < nt; ++k) acc += xw[nt - 1 - k] * taps[k];
  return acc;
}

// Real-waveform twin of fir_dot (frontend band-pass on the photodiode
// signal); same tap order contract.
double fir_dot_real(std::size_t nt, const double* taps, const double* taps_rev,
                    const double* xw) {
  static_cast<void>(taps_rev);
  double acc = 0.0;
  for (std::size_t k = 0; k < nt; ++k) acc += xw[nt - 1 - k] * taps[k];
  return acc;
}

}  // namespace rt::kernels::scalar
