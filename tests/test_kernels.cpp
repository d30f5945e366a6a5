// Unit tests for the src/kernels batch layer: scalar-backend semantics
// against naive references, tail coverage around the 4-wide AVX2 vector
// width (n = 0, 1, W-1, W, W+1, ...), and — in RT_SIMD=ON builds — the
// cross-backend contract from kernels.h: elementwise kernels bit-identical,
// reductions within 1e-12 relative tolerance.
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>
#include <vector>

namespace {

using rt::kernels::Complex;
using rt::kernels::CorrStats;
using rt::kernels::LcBankParams;

// Every size a 4-wide kernel with masked tails can get wrong: empty,
// sub-width, one-off-the-width on both sides, and multi-vector spans.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33};

std::vector<double> random_reals(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

std::vector<Complex> random_cplx(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex{dist(rng), dist(rng)};
  return v;
}

/// NaN samples appended past n: a kernel that reads beyond its span
/// poisons its output.
constexpr std::size_t kGarbage = 3;

/// Pre-weighted DFE templates (weight already multiplied in) of length
/// n + kGarbage each, plus the pointer array the kernels take. With
/// `denormal`, every template sample is scaled into the subnormal range.
struct DfeTerms {
  std::vector<std::vector<Complex>> tmpls;
  std::vector<const Complex*> ptrs;
};

DfeTerms dfe_terms(std::mt19937_64& rng, std::size_t n_terms, std::size_t n,
                   bool denormal = false) {
  DfeTerms d;
  d.tmpls.reserve(n_terms);
  for (std::size_t t = 0; t < n_terms; ++t) {
    auto tmpl = random_cplx(rng, n);
    if (denormal)
      for (auto& v : tmpl) v *= 1e-310;
    tmpl.resize(n + kGarbage, Complex{std::nan(""), std::nan("")});
    d.tmpls.push_back(std::move(tmpl));
    d.ptrs.push_back(d.tmpls.back().data());
  }
  return d;
}

/// `x` followed by kGarbage NaN samples.
std::vector<Complex> with_garbage(std::vector<Complex> x) {
  x.resize(x.size() + kGarbage, Complex{std::nan(""), std::nan("")});
  return x;
}

const std::vector<std::size_t> kDfeTermCounts = {0, 1, 3, 31, 32, 33};

void expect_rel_close(double a, double b, double tol = 1e-12) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-30});
  EXPECT_LE(std::abs(a - b) / scale, tol) << a << " vs " << b;
}

void expect_rel_close(Complex a, Complex b, double tol = 1e-12) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-30});
  EXPECT_LE(std::abs(a - b) / scale, tol) << a << " vs " << b;
}

// --- scalar backend vs naive references (all tail sizes) -------------------

TEST(ScalarKernelsTest, DotFamilyMatchesNaiveLoops) {
  std::mt19937_64 rng(101);
  for (const std::size_t n : kSizes) {
    const auto a = random_reals(rng, n);
    const auto b = random_reals(rng, n);
    const auto ca = random_cplx(rng, n);
    const auto cb = random_cplx(rng, n);
    double dot = 0.0;
    double sq = 0.0;
    Complex dc{};
    Complex du{};
    double nc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += a[i] * b[i];
      sq += a[i] * a[i];
      dc += std::conj(ca[i]) * cb[i];
      du += ca[i] * cb[i];
      nc += std::norm(ca[i]);
    }
    EXPECT_EQ(rt::kernels::scalar::dot_real(n, a.data(), b.data()), dot);
    EXPECT_EQ(rt::kernels::scalar::sum_sq_real(n, a.data()), sq);
    EXPECT_EQ(rt::kernels::scalar::cdotc(n, ca.data(), cb.data()), dc);
    EXPECT_EQ(rt::kernels::scalar::cdotu(n, ca.data(), cb.data()), du);
    EXPECT_EQ(rt::kernels::scalar::sum_norm_cplx(n, ca.data()), nc);
  }
}

TEST(ScalarKernelsTest, CorrStatsSplitIsBitwiseEqualToInterleaved) {
  std::mt19937_64 rng(102);
  for (const std::size_t n : kSizes) {
    const auto ref = random_cplx(rng, n);
    const auto x = random_cplx(rng, n);
    std::vector<double> rr(n);
    std::vector<double> ri(n);
    std::vector<double> xr(n);
    std::vector<double> xi(n);
    rt::kernels::scalar::split_complex(n, ref.data(), rr.data(), ri.data());
    rt::kernels::scalar::split_complex(n, x.data(), xr.data(), xi.data());
    const CorrStats a = rt::kernels::scalar::corr_stats(n, ref.data(), x.data());
    const CorrStats b =
        rt::kernels::scalar::corr_stats_split(n, rr.data(), ri.data(), xr.data(), xi.data());
    EXPECT_EQ(a.acc, b.acc);
    EXPECT_EQ(a.wsum, b.wsum);
    EXPECT_EQ(a.wenergy, b.wenergy);
  }
}

TEST(ScalarKernelsTest, WlTransformSupportsInPlaceAliasing) {
  std::mt19937_64 rng(103);
  const Complex a{0.8, -0.1};
  const Complex b{0.05, 0.2};
  const Complex c{-0.3, 0.4};
  for (const std::size_t n : kSizes) {
    const auto src = random_cplx(rng, n);
    std::vector<Complex> out(n);
    rt::kernels::scalar::wl_transform(n, src.data(), out.data(), a, b, c);
    auto in_place = src;
    rt::kernels::scalar::wl_transform(n, in_place.data(), in_place.data(), a, b, c);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], a * src[i] + b * std::conj(src[i]) + c);
      EXPECT_EQ(in_place[i], out[i]);
    }
  }
}

TEST(ScalarKernelsTest, FirDotWalksTapsAscendingOverReversedWindow) {
  std::mt19937_64 rng(104);
  for (const std::size_t nt : kSizes) {
    if (nt == 0) continue;  // a FIR always has >= 1 tap
    const auto taps = random_reals(rng, nt);
    std::vector<double> taps_rev(taps.rbegin(), taps.rend());
    const auto xw = random_cplx(rng, nt);
    const auto xw_real = random_reals(rng, nt);
    Complex want{};
    double want_real = 0.0;
    for (std::size_t k = 0; k < nt; ++k) {
      want += xw[nt - 1 - k] * taps[k];
      want_real += xw_real[nt - 1 - k] * taps[k];
    }
    EXPECT_EQ(rt::kernels::scalar::fir_dot(nt, taps.data(), taps_rev.data(), xw.data()), want);
    EXPECT_EQ(
        rt::kernels::scalar::fir_dot_real(nt, taps.data(), taps_rev.data(), xw_real.data()),
        want_real);
  }
}

TEST(ScalarKernelsTest, DfeScoreMatchesResidualPlusNorm) {
  std::mt19937_64 rng(105);
  for (const std::size_t n_terms : kDfeTermCounts) {
    for (const bool denormal : {false, true}) {
      const std::size_t n = 24;
      const auto residual = with_garbage(random_cplx(rng, n));
      const auto d = dfe_terms(rng, n_terms, n, denormal);
      std::vector<Complex> out(n);
      rt::kernels::scalar::dfe_residual(n, residual.data(), out.data(), d.ptrs.data(), n_terms);
      double want = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        Complex e = residual[k];
        for (std::size_t t = 0; t < n_terms; ++t) e -= d.ptrs[t][k];
        EXPECT_EQ(out[k], e);
        want += std::norm(e);
      }
      EXPECT_EQ(rt::kernels::scalar::dfe_score(n, residual.data(), d.ptrs.data(), n_terms), want);
    }
  }
}

TEST(ScalarKernelsTest, PreWeightedTemplateEqualsInlineWeighting) {
  // The equalizer forms w * tmpl[k] once per call and the kernels only
  // subtract; for finite inputs (denormals included) that is bit for bit
  // the old per-term `e -= w * tmpl[k]` chain, on both backends.
  std::mt19937_64 rng(107);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t n : {std::size_t{1}, std::size_t{20}, std::size_t{33}}) {
    for (const bool denormal : {false, true}) {
      const std::size_t n_terms = 4;
      const auto src = random_cplx(rng, n);
      std::vector<Complex> w(n_terms);
      std::vector<std::vector<Complex>> raw(n_terms);
      std::vector<std::vector<Complex>> pre(n_terms);
      std::vector<const Complex*> ptrs(n_terms);
      for (std::size_t t = 0; t < n_terms; ++t) {
        w[t] = Complex{dist(rng), dist(rng)};
        raw[t] = random_cplx(rng, n);
        if (denormal)
          for (auto& v : raw[t]) v *= 1e-310;
        pre[t].resize(n);
        for (std::size_t k = 0; k < n; ++k) pre[t][k] = w[t] * raw[t][k];
        ptrs[t] = pre[t].data();
      }
      std::vector<Complex> inline_out(n);
      double inline_score = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        Complex e = src[k];
        for (std::size_t t = 0; t < n_terms; ++t) e -= w[t] * raw[t][k];
        inline_out[k] = e;
        inline_score += std::norm(e);
      }
      std::vector<Complex> out(n);
      rt::kernels::scalar::dfe_residual(n, src.data(), out.data(), ptrs.data(), n_terms);
      EXPECT_EQ(out, inline_out) << "n=" << n;
      EXPECT_EQ(rt::kernels::scalar::dfe_score(n, src.data(), ptrs.data(), n_terms),
                inline_score);
      std::vector<Complex> dispatched(n);
      rt::kernels::dfe_residual(n, src.data(), dispatched.data(), ptrs.data(), n_terms);
      EXPECT_EQ(dispatched, inline_out) << "n=" << n << " backend "
                                        << rt::kernels::backend_name();
    }
  }
}

TEST(ScalarKernelsTest, PhaseScoreMaxFindsTheArgmaxValue) {
  std::mt19937_64 rng(106);
  for (const std::size_t k : kSizes) {
    if (k == 0) continue;  // the bank always has >= 1 hypothesis
    const auto re = random_reals(rng, k);
    const auto im = random_reals(rng, k);
    const double cr = 0.7;
    const double ci = -0.4;
    double want = re[0] * cr - im[0] * ci;
    for (std::size_t i = 1; i < k; ++i) want = std::max(want, re[i] * cr - im[i] * ci);
    EXPECT_EQ(rt::kernels::scalar::phase_score_max(k, re.data(), im.data(), cr, ci), want);
  }
}

TEST(ScalarKernelsTest, LcStepLeavesStateUntouchedForNonPositiveDt) {
  std::mt19937_64 rng(107);
  const std::size_t n = 5;
  std::vector<double> tau_c(n, 2e-3);
  std::vector<double> tau_r(n, 3e-3);
  const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.5};
  const auto drive = random_reals(rng, n);
  auto c = random_reals(rng, n);
  auto s = random_reals(rng, n);
  const auto c0 = c;
  const auto s0 = s;
  rt::kernels::scalar::lc_step(n, 0.0, drive.data(), c.data(), s.data(), p);
  EXPECT_EQ(c, c0);
  EXPECT_EQ(s, s0);
  rt::kernels::scalar::lc_step(n, -1e-6, drive.data(), c.data(), s.data(), p);
  EXPECT_EQ(c, c0);
  EXPECT_EQ(s, s0);
}

TEST(ScalarKernelsTest, LcStepRunMatchesRepeatedLcStepCalls) {
  std::mt19937_64 rng(109);
  std::uniform_real_distribution<double> tau(1e-3, 5e-3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const std::size_t n : kSizes) {
    std::vector<double> tau_c(n);
    std::vector<double> tau_r(n);
    std::vector<double> drive(n);
    std::vector<double> c0(n);
    std::vector<double> s0(n);
    for (std::size_t i = 0; i < n; ++i) {
      tau_c[i] = tau(rng);
      tau_r[i] = tau(rng);
      drive[i] = (i % 3 == 0) ? 1.0 : 0.0;
      c0[i] = unit(rng);
      s0[i] = unit(rng);
    }
    const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.35};
    const std::size_t t_steps = 4;
    const double dt = 25e-6;  // multiple substeps + a partial tail per sample

    // Reference: one lc_step per sample, snapshotting c after each.
    auto rc = c0;
    auto rs = s0;
    std::vector<double> ref_rows;
    for (std::size_t t = 0; t < t_steps; ++t) {
      rt::kernels::scalar::lc_step(n, dt, drive.data(), rc.data(), rs.data(), p);
      ref_rows.insert(ref_rows.end(), rc.begin(), rc.end());
    }

    auto c = c0;
    auto s = s0;
    std::vector<double> rows(t_steps * n, -1.0);
    rt::kernels::scalar::lc_step_run(n, t_steps, dt, drive.data(), c.data(), s.data(),
                                     rows.data(), p);
    EXPECT_EQ(rows, ref_rows);
    EXPECT_EQ(c, rc);
    EXPECT_EQ(s, rs);

    // Non-positive dt: state untouched, rows echo the current state.
    rt::kernels::scalar::lc_step_run(n, t_steps, 0.0, drive.data(), c.data(), s.data(),
                                     rows.data(), p);
    EXPECT_EQ(c, rc);
    EXPECT_EQ(s, rs);
    std::vector<double> echo;
    for (std::size_t t = 0; t < t_steps; ++t) echo.insert(echo.end(), c.begin(), c.end());
    EXPECT_EQ(rows, echo);
  }
}

// --- cross-backend contract (compiled only under -DRT_SIMD=ON) -------------

#if defined(RT_KERNELS_AVX2)

TEST(Avx2KernelsTest, BackendIsSelected) {
  EXPECT_TRUE(rt::kernels::kAvx2);
  EXPECT_STREQ(rt::kernels::backend_name(), "avx2");
}

TEST(Avx2KernelsTest, ElementwiseKernelsAreBitIdentical) {
  std::mt19937_64 rng(201);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t n : kSizes) {
    const auto x = random_cplx(rng, n);
    const auto g = random_cplx(rng, n);
    const auto xr = random_reals(rng, n);
    const Complex a{dist(rng), dist(rng)};
    const Complex b{dist(rng), dist(rng)};
    const Complex c{dist(rng), dist(rng)};

    std::vector<Complex> s_out(n);
    std::vector<Complex> v_out(n);
    rt::kernels::scalar::wl_transform(n, x.data(), s_out.data(), a, b, c);
    rt::kernels::avx2::wl_transform(n, x.data(), v_out.data(), a, b, c);
    EXPECT_EQ(s_out, v_out);

    auto s_x = x;
    auto v_x = x;
    rt::kernels::scalar::cscale(n, s_x.data(), g.data());
    rt::kernels::avx2::cscale(n, v_x.data(), g.data());
    EXPECT_EQ(s_x, v_x);

    auto s_acc = random_reals(rng, n);
    auto v_acc = s_acc;
    rt::kernels::scalar::accum_real(n, xr.data(), s_acc.data());
    rt::kernels::avx2::accum_real(n, xr.data(), v_acc.data());
    EXPECT_EQ(s_acc, v_acc);

    auto s_ax = random_reals(rng, n);
    auto v_ax = s_ax;
    rt::kernels::scalar::axpy_sub_real(n, a.real(), xr.data(), s_ax.data());
    rt::kernels::avx2::axpy_sub_real(n, a.real(), xr.data(), v_ax.data());
    EXPECT_EQ(s_ax, v_ax);

    auto s_cax = random_cplx(rng, n);
    auto v_cax = s_cax;
    rt::kernels::scalar::axpy_sub_cplx(n, a, x.data(), s_cax.data());
    rt::kernels::avx2::axpy_sub_cplx(n, a, x.data(), v_cax.data());
    EXPECT_EQ(s_cax, v_cax);

    auto s_cr = random_cplx(rng, n);
    auto v_cr = s_cr;
    rt::kernels::scalar::caxpy_real(n, a, xr.data(), s_cr.data());
    rt::kernels::avx2::caxpy_real(n, a, xr.data(), v_cr.data());
    EXPECT_EQ(s_cr, v_cr);

    std::vector<double> s_re(n);
    std::vector<double> s_im(n);
    std::vector<double> v_re(n);
    std::vector<double> v_im(n);
    rt::kernels::scalar::split_complex(n, x.data(), s_re.data(), s_im.data());
    rt::kernels::avx2::split_complex(n, x.data(), v_re.data(), v_im.data());
    EXPECT_EQ(s_re, v_re);
    EXPECT_EQ(s_im, v_im);

    if (n > 0) {
      EXPECT_EQ(
          rt::kernels::scalar::phase_score_max(n, s_re.data(), s_im.data(), a.real(), a.imag()),
          rt::kernels::avx2::phase_score_max(n, v_re.data(), v_im.data(), a.real(), a.imag()));
    }
  }
}

TEST(Avx2KernelsTest, LcStepIsBitIdenticalAcrossBackends) {
  std::mt19937_64 rng(202);
  std::uniform_real_distribution<double> tau(1e-3, 5e-3);
  for (const std::size_t n : kSizes) {
    std::vector<double> tau_c(n);
    std::vector<double> tau_r(n);
    for (std::size_t i = 0; i < n; ++i) {
      tau_c[i] = tau(rng);
      tau_r[i] = tau(rng);
    }
    const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.35};
    std::vector<double> drive(n);
    for (std::size_t i = 0; i < n; ++i) drive[i] = (i % 3 == 0) ? 1.0 : 0.0;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> c0(n);
    std::vector<double> s0(n);
    for (std::size_t i = 0; i < n; ++i) {
      c0[i] = unit(rng);
      s0[i] = unit(rng);
    }
    auto sc = c0;
    auto ss = s0;
    auto vc = c0;
    auto vs = s0;
    // 25 us spans multiple RK4 substeps (10 us cap) plus a partial tail.
    rt::kernels::scalar::lc_step(n, 25e-6, drive.data(), sc.data(), ss.data(), p);
    rt::kernels::avx2::lc_step(n, 25e-6, drive.data(), vc.data(), vs.data(), p);
    EXPECT_EQ(sc, vc);
    EXPECT_EQ(ss, vs);
  }
}

TEST(Avx2KernelsTest, LcStepRunIsBitIdenticalAcrossBackends) {
  std::mt19937_64 rng(203);
  std::uniform_real_distribution<double> tau(1e-3, 5e-3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Drive patterns exercising every specialization in the AVX2 backend:
  // all released, all driven, and mixed groups.
  const auto drive_for = [](std::size_t i, int pattern) {
    switch (pattern) {
      case 0: return 0.0;
      case 1: return 1.0;
      default: return (i % 3 == 0) ? 1.0 : 0.0;
    }
  };
  for (const std::size_t n : kSizes) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      std::vector<double> tau_c(n);
      std::vector<double> tau_r(n);
      std::vector<double> drive(n);
      std::vector<double> c0(n);
      std::vector<double> s0(n);
      for (std::size_t i = 0; i < n; ++i) {
        tau_c[i] = tau(rng);
        tau_r[i] = tau(rng);
        drive[i] = drive_for(i, pattern);
        c0[i] = unit(rng);
        s0[i] = unit(rng);
      }
      const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.35};
      const std::size_t t_steps = 5;
      auto sc = c0;
      auto ss = s0;
      auto vc = c0;
      auto vs = s0;
      std::vector<double> s_rows(t_steps * n, -1.0);
      std::vector<double> v_rows(t_steps * n, -2.0);
      rt::kernels::scalar::lc_step_run(n, t_steps, 25e-6, drive.data(), sc.data(), ss.data(),
                                       s_rows.data(), p);
      rt::kernels::avx2::lc_step_run(n, t_steps, 25e-6, drive.data(), vc.data(), vs.data(),
                                     v_rows.data(), p);
      EXPECT_EQ(s_rows, v_rows);
      EXPECT_EQ(sc, vc);
      EXPECT_EQ(ss, vs);
    }
  }
}

TEST(Avx2KernelsTest, LcStepRunFixedPointSkipIsExact) {
  // A fully released bank at (c, s) = (0, 0) must stay exactly at zero --
  // the AVX2 backend fills these rows without stepping, and the result
  // has to match the scalar spec bit-for-bit (positive zeros).
  std::mt19937_64 rng(204);
  std::uniform_real_distribution<double> tau(1e-3, 5e-3);
  const std::size_t n = 9;  // full groups + a masked tail
  std::vector<double> tau_c(n);
  std::vector<double> tau_r(n);
  for (std::size_t i = 0; i < n; ++i) {
    tau_c[i] = tau(rng);
    tau_r[i] = tau(rng);
  }
  const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.35};
  const std::vector<double> drive(n, 0.0);
  const std::size_t t_steps = 3;
  std::vector<double> sc(n, 0.0);
  std::vector<double> ss(n, 0.0);
  std::vector<double> vc(n, 0.0);
  std::vector<double> vs(n, 0.0);
  std::vector<double> s_rows(t_steps * n, -1.0);
  std::vector<double> v_rows(t_steps * n, -2.0);
  rt::kernels::scalar::lc_step_run(n, t_steps, 25e-6, drive.data(), sc.data(), ss.data(),
                                   s_rows.data(), p);
  rt::kernels::avx2::lc_step_run(n, t_steps, 25e-6, drive.data(), vc.data(), vs.data(),
                                 v_rows.data(), p);
  EXPECT_EQ(s_rows, v_rows);
  EXPECT_EQ(sc, vc);
  EXPECT_EQ(ss, vs);
  for (const double r : v_rows) {
    EXPECT_EQ(r, 0.0);
    EXPECT_FALSE(std::signbit(r));
  }
}

TEST(Avx2KernelsTest, DfeResidualIsBitIdenticalIncludingManyTerms) {
  std::mt19937_64 rng(203);
  for (const std::size_t n_terms : kDfeTermCounts) {
    for (const std::size_t n : kSizes) {
      for (const bool denormal : {false, true}) {
        const auto src = with_garbage(random_cplx(rng, n));
        const auto d = dfe_terms(rng, n_terms, n, denormal);
        std::vector<Complex> s_out(n);
        std::vector<Complex> v_out(n);
        rt::kernels::scalar::dfe_residual(n, src.data(), s_out.data(), d.ptrs.data(), n_terms);
        rt::kernels::avx2::dfe_residual(n, src.data(), v_out.data(), d.ptrs.data(), n_terms);
        EXPECT_EQ(s_out, v_out) << "n=" << n << " terms=" << n_terms << " denormal=" << denormal;
      }
    }
  }
}

TEST(Avx2KernelsTest, ReductionsAgreeWithin1em12Relative) {
  std::mt19937_64 rng(204);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t n : kSizes) {
    const auto a = random_reals(rng, n);
    const auto b = random_reals(rng, n);
    const auto ca = random_cplx(rng, n);
    const auto cb = random_cplx(rng, n);
    expect_rel_close(rt::kernels::scalar::dot_real(n, a.data(), b.data()),
                     rt::kernels::avx2::dot_real(n, a.data(), b.data()));
    expect_rel_close(rt::kernels::scalar::sum_sq_real(n, a.data()),
                     rt::kernels::avx2::sum_sq_real(n, a.data()));
    expect_rel_close(rt::kernels::scalar::cdotc(n, ca.data(), cb.data()),
                     rt::kernels::avx2::cdotc(n, ca.data(), cb.data()));
    expect_rel_close(rt::kernels::scalar::cdotu(n, ca.data(), cb.data()),
                     rt::kernels::avx2::cdotu(n, ca.data(), cb.data()));
    expect_rel_close(rt::kernels::scalar::sum_norm_cplx(n, ca.data()),
                     rt::kernels::avx2::sum_norm_cplx(n, ca.data()));

    const CorrStats s_st = rt::kernels::scalar::corr_stats(n, ca.data(), cb.data());
    const CorrStats v_st = rt::kernels::avx2::corr_stats(n, ca.data(), cb.data());
    expect_rel_close(s_st.acc, v_st.acc);
    expect_rel_close(s_st.wsum, v_st.wsum);
    expect_rel_close(s_st.wenergy, v_st.wenergy);

    std::vector<double> rr(n);
    std::vector<double> ri(n);
    std::vector<double> xr(n);
    std::vector<double> xi(n);
    rt::kernels::scalar::split_complex(n, ca.data(), rr.data(), ri.data());
    rt::kernels::scalar::split_complex(n, cb.data(), xr.data(), xi.data());
    const CorrStats s_sp =
        rt::kernels::scalar::corr_stats_split(n, rr.data(), ri.data(), xr.data(), xi.data());
    const CorrStats v_sp =
        rt::kernels::avx2::corr_stats_split(n, rr.data(), ri.data(), xr.data(), xi.data());
    expect_rel_close(s_sp.acc, v_sp.acc);
    expect_rel_close(s_sp.wsum, v_sp.wsum);
    expect_rel_close(s_sp.wenergy, v_sp.wenergy);

    if (n > 0) {
      std::vector<double> taps_rev(a.rbegin(), a.rend());
      expect_rel_close(rt::kernels::scalar::fir_dot(n, a.data(), taps_rev.data(), ca.data()),
                       rt::kernels::avx2::fir_dot(n, a.data(), taps_rev.data(), ca.data()));
      expect_rel_close(
          rt::kernels::scalar::fir_dot_real(n, a.data(), taps_rev.data(), b.data()),
          rt::kernels::avx2::fir_dot_real(n, a.data(), taps_rev.data(), b.data()));
    }

    for (const std::size_t n_terms : kDfeTermCounts) {
      const auto src = with_garbage(ca);
      const auto d = dfe_terms(rng, n_terms, n);
      expect_rel_close(rt::kernels::scalar::dfe_score(n, src.data(), d.ptrs.data(), n_terms),
                       rt::kernels::avx2::dfe_score(n, src.data(), d.ptrs.data(), n_terms));
    }
  }
}

#else  // !RT_KERNELS_AVX2

TEST(ScalarDispatchTest, ScalarBackendIsSelected) {
  EXPECT_FALSE(rt::kernels::kAvx2);
  EXPECT_STREQ(rt::kernels::backend_name(), "scalar");
}

#endif  // RT_KERNELS_AVX2

}  // namespace
