#include "kernels/elemwise.hh"

#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/hostprof.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

constexpr std::uint32_t
bitsOf(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

constexpr float
fromBits(std::uint32_t u)
{
    return std::bit_cast<float>(u);
}

/**
 * @p c ? @p a : @p b, chosen bit by bit through an all-ones mask.
 * GCC's default -ftrapping-math keeps a float compare or a float ?: a
 * branch, and jump threading turns an integer ?: into one, and either
 * stops a loop vectorising. So the branch-free kernels below test
 * conditions as integer compares on the bits and choose with this.
 */
template <typename T>
T
select(bool c, T a, T b)
{
    static_assert(sizeof(T) == sizeof(std::uint32_t));
    const std::uint32_t m = -std::uint32_t(c);
    return std::bit_cast<T>((std::bit_cast<std::uint32_t>(a) & m) |
                            (std::bit_cast<std::uint32_t>(b) & ~m));
}

/*
 * expm1ForTanh() and tanhLane() transcribe fdlibm's expm1f and tanhf,
 * as glibc ships them (s_expm1f.c, s_tanhf.c), which carry this notice:
 *
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 *
 * Conversion to float by Ian Lance Taylor, Cygnus Support.
 *
 * Every case is computed in every lane and the result chosen with
 * select(), in fdlibm's operation order, so each lane's bits equal
 * fdlibm's. A sweep of all 2^32 inputs (tests/kernels/tanh_test.cc)
 * holds the kernel to a plain transcription. fdlibm cases that tanhf's
 * arguments never reach, or whose result the sweep shows cannot change
 * tanh's output, are left out, each noted where it would be.
 */

/** fdlibm's expm1f for the arguments tanhLane() passes: x in [2, 44)
 *  or in (-2, 0], which never reach its overflow filter. fdlibm returns
 *  x itself for |x| < 2^-25; here the k = 0 path computes those lanes,
 *  and tanh's output is the same. */
float
expm1ForTanh(float x)
{
    const float ln2Hi = fromBits(0x3f317180);
    const float ln2Lo = fromBits(0x3717f7d1);
    const float invLn2 = fromBits(0x3fb8aa3b);
    const float q1 = fromBits(0xbd088889);
    const float q2 = fromBits(0x3ad00d01);
    const float q3 = fromBits(0xb8a670cd);
    const float q4 = fromBits(0x36867e54);
    const float q5 = fromBits(0xb457edbb);

    const std::uint32_t sign = bitsOf(x) & 0x80000000u;
    const std::int32_t hx = std::int32_t(bitsOf(x) & 0x7fffffffu);

    // Argument reduction x = k ln2 + (hi - lo), past |x| > 0.5 ln2.
    // Only negative arguments fall below 1.5 ln2, so k = -1 there and
    // fdlibm's k = 1 case is never reached.
    const bool reduce = hx > 0x3eb17218;
    const bool nearLn2 = hx < 0x3f851592;
    const std::int32_t kRound =
        std::int32_t(invLn2 * x + fromBits(bitsOf(0.5f) | sign));
    const float kf = float(kRound);
    const float hi = select(nearLn2, x + ln2Hi, x - kf * ln2Hi);
    const float lo = select(nearLn2, -ln2Lo, kf * ln2Lo);
    const std::int32_t k = select(reduce, select(nearLn2, -1, kRound), 0);
    const float reduced = hi - lo;
    const float c = (hi - reduced) - lo;
    const float r = select(reduce, reduced, x);

    // r is now in the primary range.
    const float hfx = 0.5f * r;
    const float hxs = r * hfx;
    const float r1 =
        1.0f + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    const float t = 3.0f - r1 * hfx;
    const float e = hxs * ((r1 - t) / (6.0f - r * t));
    const float yK0 = r - (r * e - hxs);

    const float ek = (r * (e - c) - c) - hxs;
    const float twoPk = fromBits(std::uint32_t(0x7f + k) << 23);
    const float twoMk = fromBits(std::uint32_t(0x7f - k) << 23);
    const float yKm1 = 0.5f * (r - ek) - 0.5f;
    const float yNeg = (1.0f - (ek - r)) * twoPk - 1.0f;
    // 1 - 2^-k is exact, so this equals fdlibm's bit-built constant.
    const float yLow = ((1.0f - twoMk) - (ek - r)) * twoPk;
    // fdlibm takes yNeg's form past k = 56 too; there t > 2^56 and
    // tanh rounds to 1 either way.
    const float yHigh = ((r - (ek + twoMk)) + 1.0f) * twoPk;

    float y = select(k < 23, yLow, yHigh);
    y = select(k <= -2, yNeg, y);
    y = select(k == -1, yKm1, y);
    return select(k == 0, yK0, y);
}

/** fdlibm's tanhf. It returns x itself for |x| < 2^-55; here the
 *  expm1 path computes those lanes, and the output is the same. */
float
tanhLane(float x)
{
    const std::uint32_t sign = bitsOf(x) & 0x80000000u;
    const std::int32_t ix = std::int32_t(bitsOf(x) & 0x7fffffffu);
    const bool inRange = ix < 0x41b00000; // |x| < 22: not inf or NaN
    const bool atLeast1 = ix >= 0x3f800000;
    // Out-of-range lanes take |x| = 0, so expm1's float-to-int
    // conversion of k is always defined.
    const float ax = select(inRange, fromBits(std::uint32_t(ix)), 0.0f);
    // |x| >= 1: tanh = 1 - 2/(t+2) with t = expm1(2|x|); below it,
    // tanh = -t/(t+2) with t = expm1(-2|x|). One division serves both.
    const float t = expm1ForTanh(select(atLeast1, 2.0f * ax, -2.0f * ax));
    const float q = select(atLeast1, 2.0f, -t) / (t + 2.0f);
    const float z = select(inRange, select(atLeast1, 1.0f - q, q), 1.0f);
    return select(ix > 0x7f800000, x + x, fromBits(bitsOf(z) ^ sign));
}

} // namespace

bool
elemOpIsBinary(ElemOp op)
{
    switch (op) {
      case ElemOp::Add:
      case ElemOp::Sub:
      case ElemOp::Mul:
      case ElemOp::Div:
      case ElemOp::Atan2:
        return true;
      default:
        return false;
    }
}

void
elemwiseBuf(ElemOp op, const float *a, const float *b, float scalar,
            float *out, std::size_t n)
{
    HostProfScope prof(HostCat::Kernels);
    // One loop per op, so each loop body is branch-free on the op.
    switch (op) {
      case ElemOp::Add:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] + b[i];
        return;
      case ElemOp::Sub:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] - b[i];
        return;
      case ElemOp::Mul:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * b[i];
        return;
      case ElemOp::Div:
        // |b| > 1e-12 (false for NaN, as the float compare is), tested
        // on the bits; other lanes divide by 1 and are masked to 0.
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t mag = std::int32_t(bitsOf(b[i]) & 0x7fffffffu);
            const bool ok = (mag > std::int32_t(bitsOf(1e-12f))) &
                            (mag <= 0x7f800000);
            out[i] = select(ok, a[i] / select(ok, b[i], 1.0f), 0.0f);
        }
        return;
      case ElemOp::Sqr:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * a[i];
        return;
      case ElemOp::Sqrt:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] > 0.0f ? std::sqrt(a[i]) : 0.0f;
        return;
      case ElemOp::Atan2:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = std::atan2(a[i], b[i]);
        return;
      case ElemOp::Tanh:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = tanhLane(a[i]);
        return;
      case ElemOp::Sigmoid:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 1.0f / (1.0f + std::exp(-a[i]));
        return;
      case ElemOp::Scale:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * scalar;
        return;
      case ElemOp::OneMinus:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 1.0f - a[i];
        return;
    }
}

std::vector<float>
elemwise(ElemOp op, const std::vector<float> &a,
         const std::vector<float> *b, float scalar)
{
    if (elemOpIsBinary(op)) {
        RELIEF_ASSERT(b != nullptr, "binary elem op ", elemOpName(op),
                      " needs two operands");
        RELIEF_ASSERT(a.size() == b->size(),
                      "elem op operand size mismatch: ", a.size(), " vs ",
                      b->size());
    }

    std::vector<float> out(a.size());
    elemwiseBuf(op, a.data(), b != nullptr ? b->data() : nullptr, scalar,
                out.data(), a.size());
    return out;
}

Plane
elemwise(ElemOp op, const Plane &a, const Plane *b, float scalar)
{
    Plane out(a.width(), a.height());
    elemwiseInto(op, a, b, scalar, out);
    return out;
}

void
elemwiseInto(ElemOp op, const Plane &a, const Plane *b, float scalar,
             Plane &out)
{
    if (b != nullptr) {
        RELIEF_ASSERT(a.sameShape(*b), "elem op plane shape mismatch");
    }
    RELIEF_ASSERT(a.sameShape(out), "elem op output shape mismatch");
    if (elemOpIsBinary(op)) {
        RELIEF_ASSERT(b != nullptr, "binary elem op ", elemOpName(op),
                      " needs two operands");
    }
    elemwiseBuf(op, a.data().data(),
                b != nullptr ? b->data().data() : nullptr, scalar,
                out.data().data(), a.size());
}

} // namespace relief
