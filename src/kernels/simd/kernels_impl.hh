/**
 * @file
 * Width-agnostic kernel templates + per-ISA lane types. Each backend
 * TU (kernels_scalar.cc, kernels_sse42.cc, ...) includes this header
 * under its own -m flags and instantiates makeOps<Lane>() once.
 *
 * Everything here lives in an anonymous namespace ON PURPOSE: the
 * backend TUs are compiled with different ISA options, and letting
 * the linker merge "identical" inline helpers across them would pick
 * one TU's codegen (possibly AVX2) for all backends — an illegal-
 * instruction trap on narrower CPUs. Internal linkage keeps each
 * backend self-contained.
 *
 * Bit-identity rules (see simd.hh): only IEEE correctly-rounded ops,
 * vector op order mirrors the scalar expression order exactly, one
 * lane = one output element (reductions stay serial per lane), no
 * FMA (backends are never compiled with -mfma, so GCC's default
 * -ffp-contract cannot contract the explicit mul+add pairs). Border
 * and tail elements run the same scalar helpers on every backend.
 */

#ifndef RELIEF_KERNELS_SIMD_KERNELS_IMPL_HH
#define RELIEF_KERNELS_SIMD_KERNELS_IMPL_HH

#include <algorithm>
#include <cmath>
#include <cstddef>

#if defined(__SSE4_2__) || defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#endif

#include "kernels/simd/simd.hh"

namespace relief::simd_detail
{
namespace
{

// ---------------------------------------------------------------- lanes

/** Width-1 reference lane; the other lanes must match it bit for bit. */
struct ScalarLane
{
    static constexpr int width = 1;
    using V = float;
    using M = bool;

    static V load(const float *p) { return *p; }
    static void store(float *p, V v) { *p = v; }
    static V bcast(float v) { return v; }
    static V zero() { return 0.0f; }
    static V add(V a, V b) { return a + b; }
    static V sub(V a, V b) { return a - b; }
    static V mul(V a, V b) { return a * b; }
    static V div(V a, V b) { return a / b; }
    static V sqrt(V a) { return std::sqrt(a); }
    static V min(V a, V b) { return b < a ? b : a; }
    static V max(V a, V b) { return a < b ? b : a; }
    static V abs(V a) { return std::fabs(a); }
    static M cmpLt(V a, V b) { return a < b; }
    static M cmpGe(V a, V b) { return a >= b; }
    static M cmpGt(V a, V b) { return a > b; }
    static M mand(M a, M b) { return a && b; }
    static M mor(M a, M b) { return a || b; }
    static M mnot(M a) { return !a; }
    static V select(M m, V a, V b) { return m ? a : b; }
};

#if defined(__SSE4_2__)
/** 4-lane SSE4.2 backend (blendv needs SSE4.1). */
struct Sse42Lane
{
    static constexpr int width = 4;
    using V = __m128;
    using M = __m128; ///< All-ones / all-zeros per lane.

    static V load(const float *p) { return _mm_loadu_ps(p); }
    static void store(float *p, V v) { _mm_storeu_ps(p, v); }
    static V bcast(float v) { return _mm_set1_ps(v); }
    static V zero() { return _mm_setzero_ps(); }
    static V add(V a, V b) { return _mm_add_ps(a, b); }
    static V sub(V a, V b) { return _mm_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm_mul_ps(a, b); }
    static V div(V a, V b) { return _mm_div_ps(a, b); }
    static V sqrt(V a) { return _mm_sqrt_ps(a); }
    static V min(V a, V b) { return _mm_min_ps(a, b); }
    static V max(V a, V b) { return _mm_max_ps(a, b); }
    static V abs(V a) { return _mm_andnot_ps(_mm_set1_ps(-0.0f), a); }
    static M cmpLt(V a, V b) { return _mm_cmplt_ps(a, b); }
    static M cmpGe(V a, V b) { return _mm_cmpge_ps(a, b); }
    static M cmpGt(V a, V b) { return _mm_cmpgt_ps(a, b); }
    static M mand(M a, M b) { return _mm_and_ps(a, b); }
    static M mor(M a, M b) { return _mm_or_ps(a, b); }
    static M mnot(M a)
    {
        return _mm_xor_ps(a, _mm_castsi128_ps(_mm_set1_epi32(-1)));
    }
    static V select(M m, V a, V b) { return _mm_blendv_ps(b, a, m); }
};
#endif // __SSE4_2__

#if defined(__AVX2__)
/** 8-lane AVX2 backend. Never compiled with -mfma: the explicit
 *  mul+add sequences must not contract. */
struct Avx2Lane
{
    static constexpr int width = 8;
    using V = __m256;
    using M = __m256;

    static V load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, V v) { _mm256_storeu_ps(p, v); }
    static V bcast(float v) { return _mm256_set1_ps(v); }
    static V zero() { return _mm256_setzero_ps(); }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    static V div(V a, V b) { return _mm256_div_ps(a, b); }
    static V sqrt(V a) { return _mm256_sqrt_ps(a); }
    static V min(V a, V b) { return _mm256_min_ps(a, b); }
    static V max(V a, V b) { return _mm256_max_ps(a, b); }
    static V abs(V a)
    {
        return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a);
    }
    static M cmpLt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
    static M cmpGe(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_GE_OQ); }
    static M cmpGt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
    static M mand(M a, M b) { return _mm256_and_ps(a, b); }
    static M mor(M a, M b) { return _mm256_or_ps(a, b); }
    static M mnot(M a)
    {
        return _mm256_xor_ps(
            a, _mm256_castsi256_ps(_mm256_set1_epi32(-1)));
    }
    static V select(M m, V a, V b) { return _mm256_blendv_ps(b, a, m); }
};
#endif // __AVX2__

#if defined(__aarch64__) && defined(__ARM_NEON)
/** 4-lane AArch64 Advanced SIMD backend (vsqrtq is A64-only and
 *  correctly rounded, like the compare/bsl ops). */
struct NeonLane
{
    static constexpr int width = 4;
    using V = float32x4_t;
    using M = uint32x4_t;

    static V load(const float *p) { return vld1q_f32(p); }
    static void store(float *p, V v) { vst1q_f32(p, v); }
    static V bcast(float v) { return vdupq_n_f32(v); }
    static V zero() { return vdupq_n_f32(0.0f); }
    static V add(V a, V b) { return vaddq_f32(a, b); }
    static V sub(V a, V b) { return vsubq_f32(a, b); }
    static V mul(V a, V b) { return vmulq_f32(a, b); }
    static V div(V a, V b) { return vdivq_f32(a, b); }
    static V sqrt(V a) { return vsqrtq_f32(a); }
    static V min(V a, V b) { return vminq_f32(a, b); }
    static V max(V a, V b) { return vmaxq_f32(a, b); }
    static V abs(V a) { return vabsq_f32(a); }
    static M cmpLt(V a, V b) { return vcltq_f32(a, b); }
    static M cmpGe(V a, V b) { return vcgeq_f32(a, b); }
    static M cmpGt(V a, V b) { return vcgtq_f32(a, b); }
    static M mand(M a, M b) { return vandq_u32(a, b); }
    static M mor(M a, M b) { return vorrq_u32(a, b); }
    static M mnot(M a) { return vmvnq_u32(a); }
    static V select(M m, V a, V b) { return vbslq_f32(m, a, b); }
};
#endif // __aarch64__ && __ARM_NEON

// ------------------------------------------- shared scalar per-element
// Borders and vector tails run these on EVERY backend so edge pixels
// match the scalar backend exactly.

inline int
clampi(int v, int lo, int hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

inline float
convPixel(const float *const *rows, int w, int x, const float *taps,
          int fsize)
{
    const int half = fsize / 2;
    float acc = 0.0f;
    for (int fy = 0; fy < fsize; ++fy)
        for (int fx = 0; fx < fsize; ++fx)
            acc += taps[fy * fsize + fx] *
                   rows[fy][clampi(x + fx - half, 0, w - 1)];
    return acc;
}

inline float
cannyNmsPixel(const float *const *m, const float *dir, int w, int x)
{
    float deg = dir[x] * 180.0f / float(M_PI);
    if (deg < 0.0f)
        deg += 180.0f;
    int dx1 = 0, dy1 = 0;
    if (deg < 22.5f || deg >= 157.5f) {
        dx1 = 1;
        dy1 = 0;
    } else if (deg < 67.5f) {
        dx1 = 1;
        dy1 = 1;
    } else if (deg < 112.5f) {
        dx1 = 0;
        dy1 = 1;
    } else {
        dx1 = -1;
        dy1 = 1;
    }
    const float v = m[1][x];
    const float n1 = m[1 + dy1][clampi(x + dx1, 0, w - 1)];
    const float n2 = m[1 - dy1][clampi(x - dx1, 0, w - 1)];
    return (v >= n1 && v >= n2) ? v : 0.0f;
}

inline float
harrisNmsPixel(const float *const *r, int w, int x)
{
    const float v = r[1][x];
    if (v <= 0.0f)
        return 0.0f;
    for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0)
                continue;
            if (r[1 + dy][clampi(x + dx, 0, w - 1)] > v)
                return 0.0f;
        }
    return v;
}

// --------------------------------------------------- kernel templates

/** 2-D convolution row, fixed compile-time filter size. The vector
 *  interior covers x in [half, w - half) where no clamping happens;
 *  borders and the ragged tail share convPixel(). */
template <class L, int FS>
void
convRowFixedT(const float *const *rows, int w, const float *taps,
              float *out)
{
    constexpr int half = FS / 2;
    int x = 0;
    const int interior_end = w - half; // exclusive
    for (; x < std::min(half, w); ++x)
        out[x] = convPixel(rows, w, x, taps, FS);
    for (; x + L::width <= interior_end; x += L::width) {
        auto acc = L::zero();
        for (int fy = 0; fy < FS; ++fy) {
            const float *row = rows[fy];
            for (int fx = 0; fx < FS; ++fx)
                acc = L::add(acc, L::mul(L::bcast(taps[fy * FS + fx]),
                                         L::load(row + x + fx - half)));
        }
        L::store(out + x, acc);
    }
    for (; x < w; ++x)
        out[x] = convPixel(rows, w, x, taps, FS);
}

template <class L>
void
convRowT(const float *const *rows, int w, const float *taps, int fsize,
         float *out)
{
    switch (fsize) {
    case 3:
        convRowFixedT<L, 3>(rows, w, taps, out);
        return;
    case 5:
        convRowFixedT<L, 5>(rows, w, taps, out);
        return;
    default:
        for (int x = 0; x < w; ++x)
            out[x] = convPixel(rows, w, x, taps, fsize);
        return;
    }
}

/** Canny NMS row. Interior lanes (x in [1, w-2]) load all four
 *  neighbor-pair candidates unaligned and blend by exclusive
 *  angle-class masks; x = 0, x = w-1, and the tail clamp via the
 *  scalar helper. */
template <class L>
void
cannyNmsRowT(const float *const *m, const float *dir, int w, float *out)
{
    int x = 0;
    for (; x < std::min(1, w); ++x)
        out[x] = cannyNmsPixel(m, dir, w, x);
    const auto v180 = L::bcast(180.0f);
    const auto vpi = L::bcast(float(M_PI));
    const auto c225 = L::bcast(22.5f);
    const auto c675 = L::bcast(67.5f);
    const auto c1125 = L::bcast(112.5f);
    const auto c1575 = L::bcast(157.5f);
    const auto vzero = L::zero();
    // Last full vector must end at x + width - 1 <= w - 2.
    for (; x + L::width <= w - 1; x += L::width) {
        auto deg = L::div(L::mul(L::load(dir + x), v180), vpi);
        deg = L::select(L::cmpLt(deg, vzero), L::add(deg, v180), deg);
        const auto k0 =
            L::mor(L::cmpLt(deg, c225), L::cmpGe(deg, c1575));
        const auto k45 =
            L::mand(L::cmpGe(deg, c225), L::cmpLt(deg, c675));
        const auto k90 =
            L::mand(L::cmpGe(deg, c675), L::cmpLt(deg, c1125));
        // class 135 is the remainder.
        const auto n1 = L::select(
            k0, L::load(m[1] + x + 1),
            L::select(k45, L::load(m[2] + x + 1),
                      L::select(k90, L::load(m[2] + x),
                                L::load(m[2] + x - 1))));
        const auto n2 = L::select(
            k0, L::load(m[1] + x - 1),
            L::select(k45, L::load(m[0] + x - 1),
                      L::select(k90, L::load(m[0] + x),
                                L::load(m[0] + x + 1))));
        const auto v = L::load(m[1] + x);
        const auto keep = L::mand(L::cmpGe(v, n1), L::cmpGe(v, n2));
        L::store(out + x, L::select(keep, v, vzero));
    }
    for (; x < w; ++x)
        out[x] = cannyNmsPixel(m, dir, w, x);
}

/** Harris NMS row: keep v when v > 0 and no 8-neighbor exceeds it.
 *  An OR of eight greater-than masks (not a max-reduce) preserves the
 *  scalar early-exit semantics for any input. */
template <class L>
void
harrisNmsRowT(const float *const *r, int w, float *out)
{
    int x = 0;
    for (; x < std::min(1, w); ++x)
        out[x] = harrisNmsPixel(r, w, x);
    const auto vzero = L::zero();
    for (; x + L::width <= w - 1; x += L::width) {
        const auto v = L::load(r[1] + x);
        auto any = L::cmpGt(L::load(r[0] + x - 1), v);
        any = L::mor(any, L::cmpGt(L::load(r[0] + x), v));
        any = L::mor(any, L::cmpGt(L::load(r[0] + x + 1), v));
        any = L::mor(any, L::cmpGt(L::load(r[1] + x - 1), v));
        any = L::mor(any, L::cmpGt(L::load(r[1] + x + 1), v));
        any = L::mor(any, L::cmpGt(L::load(r[2] + x - 1), v));
        any = L::mor(any, L::cmpGt(L::load(r[2] + x), v));
        any = L::mor(any, L::cmpGt(L::load(r[2] + x + 1), v));
        const auto keep = L::mand(L::cmpGt(v, vzero), L::mnot(any));
        L::store(out + x, L::select(keep, v, vzero));
    }
    for (; x < w; ++x)
        out[x] = harrisNmsPixel(r, w, x);
}

template <class L>
void
bt601T(const float *r, const float *g, const float *b, float *out,
       std::size_t n)
{
    const auto cr = L::bcast(0.299f);
    const auto cg = L::bcast(0.587f);
    const auto cb = L::bcast(0.114f);
    std::size_t i = 0;
    for (; i + L::width <= n; i += L::width) {
        const auto v =
            L::add(L::add(L::mul(cr, L::load(r + i)),
                          L::mul(cg, L::load(g + i))),
                   L::mul(cb, L::load(b + i)));
        L::store(out + i, v);
    }
    for (; i < n; ++i)
        out[i] = 0.299f * r[i] + 0.587f * g[i] + 0.114f * b[i];
}

template <class L>
void
ccmClampT(float *r, float *g, float *b, std::size_t n,
          const float ccm[3][3])
{
    const auto vzero = L::zero();
    const auto vone = L::bcast(1.0f);
    std::size_t i = 0;
    for (; i + L::width <= n; i += L::width) {
        const auto vr = L::load(r + i);
        const auto vg = L::load(g + i);
        const auto vb = L::load(b + i);
        float *const outs[3] = {r, g, b};
        for (int c = 0; c < 3; ++c) {
            auto v = L::add(L::add(L::mul(L::bcast(ccm[c][0]), vr),
                                   L::mul(L::bcast(ccm[c][1]), vg)),
                            L::mul(L::bcast(ccm[c][2]), vb));
            v = L::min(L::max(v, vzero), vone);
            L::store(outs[c] + i, v);
        }
    }
    for (; i < n; ++i) {
        const float rr = r[i], gg = g[i], bb = b[i];
        float *const outs[3] = {r, g, b};
        for (int c = 0; c < 3; ++c) {
            float v = ccm[c][0] * rr + ccm[c][1] * gg + ccm[c][2] * bb;
            v = v < 0.0f ? 0.0f : v;
            v = v > 1.0f ? 1.0f : v;
            outs[c][i] = v;
        }
    }
}

template <class L>
void
gradMagT(const float *gx, const float *gy, float *out, std::size_t n)
{
    const auto vzero = L::zero();
    std::size_t i = 0;
    for (; i + L::width <= n; i += L::width) {
        const auto x = L::load(gx + i);
        const auto y = L::load(gy + i);
        const auto s = L::add(L::mul(x, x), L::mul(y, y));
        L::store(out + i,
                 L::select(L::cmpGt(s, vzero), L::sqrt(s), vzero));
    }
    for (; i < n; ++i) {
        const float s = gx[i] * gx[i] + gy[i] * gy[i];
        out[i] = s > 0.0f ? std::sqrt(s) : 0.0f;
    }
}

template <class L>
void
elemRowT(ElemOp op, const float *a, const float *b, float scalar,
         float *out, std::size_t n)
{
    std::size_t i = 0;
    switch (op) {
    case ElemOp::Add:
        for (; i + L::width <= n; i += L::width)
            L::store(out + i, L::add(L::load(a + i), L::load(b + i)));
        for (; i < n; ++i)
            out[i] = a[i] + b[i];
        return;
    case ElemOp::Sub:
        for (; i + L::width <= n; i += L::width)
            L::store(out + i, L::sub(L::load(a + i), L::load(b + i)));
        for (; i < n; ++i)
            out[i] = a[i] - b[i];
        return;
    case ElemOp::Mul:
        for (; i + L::width <= n; i += L::width)
            L::store(out + i, L::mul(L::load(a + i), L::load(b + i)));
        for (; i < n; ++i)
            out[i] = a[i] * b[i];
        return;
    case ElemOp::Div: {
        const auto eps = L::bcast(1e-12f);
        const auto vzero = L::zero();
        for (; i + L::width <= n; i += L::width) {
            const auto x = L::load(a + i);
            const auto y = L::load(b + i);
            const auto ok = L::cmpGt(L::abs(y), eps);
            L::store(out + i, L::select(ok, L::div(x, y), vzero));
        }
        for (; i < n; ++i)
            out[i] = std::abs(b[i]) > 1e-12f ? a[i] / b[i] : 0.0f;
        return;
    }
    case ElemOp::Sqr:
        for (; i + L::width <= n; i += L::width) {
            const auto x = L::load(a + i);
            L::store(out + i, L::mul(x, x));
        }
        for (; i < n; ++i)
            out[i] = a[i] * a[i];
        return;
    case ElemOp::Sqrt: {
        const auto vzero = L::zero();
        for (; i + L::width <= n; i += L::width) {
            const auto x = L::load(a + i);
            L::store(out + i, L::select(L::cmpGt(x, vzero), L::sqrt(x),
                                        vzero));
        }
        for (; i < n; ++i)
            out[i] = a[i] > 0.0f ? std::sqrt(a[i]) : 0.0f;
        return;
    }
    case ElemOp::Scale: {
        const auto s = L::bcast(scalar);
        for (; i + L::width <= n; i += L::width)
            L::store(out + i, L::mul(L::load(a + i), s));
        for (; i < n; ++i)
            out[i] = a[i] * scalar;
        return;
    }
    case ElemOp::OneMinus: {
        const auto vone = L::bcast(1.0f);
        for (; i + L::width <= n; i += L::width)
            L::store(out + i, L::sub(vone, L::load(a + i)));
        for (; i < n; ++i)
            out[i] = 1.0f - a[i];
        return;
    }
    default:
        // Atan2/Tanh/Sigmoid never reach the vector path; the
        // dispatcher routes them to elemScalarRow().
        elemScalarRow(op, a, b, scalar, out, n);
        return;
    }
}

template <class L>
void
rnnGatePreT(const float *w, const float *x, const float *u,
            const float *h, const float *b, float *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + L::width <= n; i += L::width) {
        const auto wx = L::mul(L::load(w + i), L::load(x + i));
        const auto uh = L::mul(L::load(u + i), L::load(h + i));
        L::store(out + i, L::add(L::add(wx, uh), L::load(b + i)));
    }
    for (; i < n; ++i)
        out[i] = (w[i] * x[i] + u[i] * h[i]) + b[i];
}

/** Fill a dispatch table with this lane's instantiations. */
template <class L>
KernelOps
makeOps(KernelIsa isa)
{
    KernelOps ops;
    ops.isa = isa;
    ops.laneWidth = L::width;
    ops.convRow = &convRowT<L>;
    ops.cannyNmsRow = &cannyNmsRowT<L>;
    ops.harrisNmsRow = &harrisNmsRowT<L>;
    ops.bt601 = &bt601T<L>;
    ops.ccmClamp = &ccmClampT<L>;
    ops.elemRow = &elemRowT<L>;
    ops.gradMag = &gradMagT<L>;
    ops.rnnGatePre = &rnnGatePreT<L>;
    return ops;
}

} // namespace
} // namespace relief::simd_detail

#endif // RELIEF_KERNELS_SIMD_KERNELS_IMPL_HH
