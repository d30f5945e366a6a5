// Public kernel API for the hot-path stages (ROADMAP "SIMD/batch across
// pixels" item). Every function exists in two backends:
//
//   kernels::scalar::* -- reference implementation, plain sequential C++,
//     bit-identical to the pre-refactor loops it replaced (golden BER
//     fixtures and the streaming chunk-invariance suite pin this down).
//   kernels::avx2::*   -- compiled only when CMake option RT_SIMD=ON
//     (preset `avx2`), 4-wide double AVX2 with masked tails.
//
// The unqualified kernels::name aliases resolve to the configured backend
// (`dispatch`). Bit-identity contract per kernel family:
//
//   elementwise (lc_step, lc_step_run, wl_transform, cscale, accum_real, axpy_sub_*,
//   caxpy_real, split_complex, dfe_residual, phase_score_max): each output
//   element sees the exact IEEE op chain of the scalar loop, so both
//   backends agree bitwise (the AVX2 TU is built with -ffp-contract=off
//   and uses no FMA here).
//
//   reductions (dot_real, cdotc, cdotu, sum_sq_real, sum_norm_cplx,
//   corr_stats, corr_stats_split, dfe_score, fir_dot): AVX2 accumulates
//   in 4 independent lanes (plus explicit FMA), which reassociates the
//   sum. Tolerance is documented and test-enforced in
//   tests/test_kernels.cpp: relative error <= 1e-12 on the randomized
//   inputs used there (double ULP-scale; the physical pipeline tolerances
//   are orders of magnitude looser).
//
// Intrinsics live in dispatch.h ONLY (rt_check rule C5 bans them
// everywhere else, including the rest of this module).
#pragma once

#include <complex>
#include <cstddef>

namespace rt::kernels {

using Complex = std::complex<double>;

/// Per-pixel LC-cell parameter bank (SoA). `tau_charge`/`tau_relax` are
/// per-pixel (module heterogeneity + yaw timing skew perturb them);
/// `tau_slow`, `tau_memory` and the memory coupling are uniform per tag.
struct LcBankParams {
  const double* tau_charge;
  const double* tau_relax;
  double tau_slow;
  double tau_memory;
  double k_mem;
};

/// Running sums of correlation_centered_at: acc = sum conj(ref)*x,
/// wsum = sum x, wenergy = sum |x|^2.
struct CorrStats {
  Complex acc;
  Complex wsum;
  double wenergy;
};

// Both backends implement this exact surface; see kernels_scalar.cpp for
// the semantics (the scalar bodies are the specification).
#define RT_KERNELS_DECLARE_BACKEND                                                              \
  /* -- elementwise (bit-identical across backends) -- */                                       \
  void lc_step(std::size_t n, double dt, const double* drive, double* c, double* s,             \
               const LcBankParams& p);                                                          \
  void lc_step_run(std::size_t n, std::size_t t_steps, double dt, const double* drive,          \
                   double* c, double* s, double* c_out, const LcBankParams& p);                 \
  void wl_transform(std::size_t n, const Complex* src, Complex* dst, Complex a, Complex b,      \
                    Complex c);                                                                 \
  void cscale(std::size_t n, Complex* x, const Complex* g);                                     \
  void accum_real(std::size_t n, const double* x, double* y);                                   \
  void axpy_sub_real(std::size_t n, double a, const double* x, double* y);                      \
  void axpy_sub_cplx(std::size_t n, Complex a, const Complex* x, Complex* y);                   \
  void caxpy_real(std::size_t n, Complex a, const double* x, Complex* y);                       \
  void split_complex(std::size_t n, const Complex* x, double* re, double* im);                  \
  void dfe_residual(std::size_t n, const Complex* src, Complex* dst,                            \
                    const Complex* const* tmpl, std::size_t n_terms);                           \
  double phase_score_max(std::size_t k, const double* rot_re, const double* rot_im,             \
                         double c_re, double c_im);                                             \
  /* -- reductions (AVX2 reassociates; tolerance in tests/test_kernels.cpp) -- */               \
  double dot_real(std::size_t n, const double* a, const double* b);                             \
  Complex cdotc(std::size_t n, const Complex* a, const Complex* b);                             \
  Complex cdotu(std::size_t n, const Complex* a, const Complex* b);                             \
  double sum_sq_real(std::size_t n, const double* x);                                           \
  double sum_norm_cplx(std::size_t n, const Complex* x);                                        \
  CorrStats corr_stats(std::size_t n, const Complex* ref, const Complex* x);                    \
  CorrStats corr_stats_split(std::size_t n, const double* ref_re, const double* ref_im,         \
                             const double* x_re, const double* x_im);                           \
  double dfe_score(std::size_t n, const Complex* residual, const Complex* const* tmpl,          \
                   std::size_t n_terms);                                                        \
  Complex fir_dot(std::size_t nt, const double* taps, const double* taps_rev,                   \
                  const Complex* xw);                                                           \
  double fir_dot_real(std::size_t nt, const double* taps, const double* taps_rev,               \
                      const double* xw);

namespace scalar {
RT_KERNELS_DECLARE_BACKEND
}  // namespace scalar

#if defined(RT_KERNELS_AVX2)
namespace avx2 {
RT_KERNELS_DECLARE_BACKEND
}  // namespace avx2
namespace dispatch = avx2;
inline constexpr bool kAvx2 = true;
inline constexpr const char* backend_name() { return "avx2"; }
#else
namespace dispatch = scalar;
inline constexpr bool kAvx2 = false;
inline constexpr const char* backend_name() { return "scalar"; }
#endif

#undef RT_KERNELS_DECLARE_BACKEND

using dispatch::lc_step;
using dispatch::lc_step_run;
using dispatch::wl_transform;
using dispatch::cscale;
using dispatch::accum_real;
using dispatch::axpy_sub_real;
using dispatch::axpy_sub_cplx;
using dispatch::caxpy_real;
using dispatch::split_complex;
using dispatch::dfe_residual;
using dispatch::phase_score_max;
using dispatch::dot_real;
using dispatch::cdotc;
using dispatch::cdotu;
using dispatch::sum_sq_real;
using dispatch::sum_norm_cplx;
using dispatch::corr_stats;
using dispatch::corr_stats_split;
using dispatch::dfe_score;
using dispatch::fir_dot;
using dispatch::fir_dot_real;

}  // namespace rt::kernels
