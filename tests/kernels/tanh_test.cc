/**
 * @file
 * The Tanh kernel against a plain, branchy transcription of fdlibm's
 * tanhf and expm1f (the code glibc ships). The kernel computes every
 * case in every lane and selects; the transcription below takes
 * fdlibm's branches one by one, so the two are written independently.
 * Comparing against it rather than std::tanh keeps the test free of
 * the host's libm. NaN outputs compare equal to any NaN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "kernels/elemwise.hh"

using namespace relief;

namespace
{

std::uint32_t
wordOf(float f)
{
    std::uint32_t u = 0;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

float
floatOf(std::uint32_t u)
{
    float f = 0;
    std::memcpy(&f, &u, sizeof f);
    return f;
}

/*
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
 */

float
fdlibmExpm1f(float x)
{
    const float one = 1.0f;
    const float huge = 1.0e+30f;
    const float tiny = 1.0e-30f;
    const float oThreshold = floatOf(0x42b17180);
    const float ln2Hi = floatOf(0x3f317180);
    const float ln2Lo = floatOf(0x3717f7d1);
    const float invln2 = floatOf(0x3fb8aa3b);
    const float q1 = floatOf(0xbd088889);
    const float q2 = floatOf(0x3ad00d01);
    const float q3 = floatOf(0xb8a670cd);
    const float q4 = floatOf(0x36867e54);
    const float q5 = floatOf(0xb457edbb);

    float hi, lo, c = 0.0f, t, e, y;
    std::int32_t k;
    std::uint32_t hx = wordOf(x);
    const std::uint32_t xsb = hx & 0x80000000u;
    hx &= 0x7fffffffu;

    // Filter out huge and non-finite arguments.
    if (hx >= 0x4195b844) {             // |x| >= 27 ln2
        if (hx >= 0x42b17218) {         // |x| >= 88.721...
            if (hx > 0x7f800000)
                return x + x;           // NaN
            if (hx == 0x7f800000)
                return xsb == 0 ? x : -1.0f;
            if (x > oThreshold)
                return huge * huge;     // overflow
        }
        if (xsb != 0)
            return tiny - one;          // x < -27 ln2
    }

    // Argument reduction.
    if (hx > 0x3eb17218) {              // |x| > 0.5 ln2
        if (hx < 0x3f851592) {          // and |x| < 1.5 ln2
            if (xsb == 0) {
                hi = x - ln2Hi;
                lo = ln2Lo;
                k = 1;
            } else {
                hi = x + ln2Hi;
                lo = -ln2Lo;
                k = -1;
            }
        } else {
            k = std::int32_t(invln2 * x + (xsb == 0 ? 0.5f : -0.5f));
            t = float(k);
            hi = x - t * ln2Hi;         // t * ln2Hi is exact here
            lo = t * ln2Lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < 0x33000000) {       // |x| < 2^-25: return x
        t = huge + x;
        return x - (t - (huge + x));
    } else {
        k = 0;
    }

    // x is now in the primary range.
    const float hfx = 0.5f * x;
    const float hxs = x * hfx;
    const float r1 =
        one + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    t = 3.0f - r1 * hfx;
    e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0)
        return x - (x * e - hxs);
    const float twopk = floatOf(std::uint32_t(0x7f + k) << 23);
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    if (k == 1) {
        if (x < -0.25f)
            return -2.0f * (e - (x + 0.5f));
        return one + 2.0f * (x - e);
    }
    if (k <= -2 || k > 56) {            // exp(x) - 1 suffices
        y = one - (e - x);
        if (k == 128)
            y = y * 2.0f * 0x1p127f;
        else
            y = y * twopk;
        return y - one;
    }
    if (k < 23) {
        t = floatOf(0x3f800000u - (0x1000000u >> k)); // 1 - 2^-k
        y = t - (e - x);
        y = y * twopk;
    } else {
        t = floatOf(std::uint32_t(0x7f - k) << 23);    // 2^-k
        y = x - (e + t);
        y += one;
        y = y * twopk;
    }
    return y;
}

float
fdlibmTanhf(float x)
{
    const float one = 1.0f;
    const float two = 2.0f;
    const float tiny = 1.0e-30f;
    const std::uint32_t jx = wordOf(x);
    const std::uint32_t ix = jx & 0x7fffffffu;
    const bool negative = (jx & 0x80000000u) != 0;

    if (ix >= 0x7f800000)               // tanh(+-inf) = +-1, NaN
        return negative ? one / x - one : one / x + one;

    float z;
    if (ix < 0x41b00000) {              // |x| < 22
        if (ix == 0)
            return x;
        if (ix < 0x24000000)            // |x| < 2^-55
            return x * (one + x);
        if (ix >= 0x3f800000) {         // |x| >= 1
            const float t = fdlibmExpm1f(two * std::fabs(x));
            z = one - two / (t + two);
        } else {
            const float t = fdlibmExpm1f(-two * std::fabs(x));
            z = -t / (t + two);
        }
    } else {                            // |x| >= 22: +-1
        z = one - tiny;
    }
    return negative ? -z : z;
}

/** Run the kernel over @p inputs; return the number of outputs whose
 *  bits differ from the transcription's (both NaN counts as equal),
 *  and the first such input in @p first. */
std::uint64_t
countMismatches(const std::vector<float> &inputs, std::uint32_t &first)
{
    std::vector<float> out(inputs.size());
    elemwiseBuf(ElemOp::Tanh, inputs.data(), nullptr, 1.0f, out.data(),
                inputs.size());
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const float want = fdlibmTanhf(inputs[i]);
        if (wordOf(out[i]) == wordOf(want) ||
            (std::isnan(out[i]) && std::isnan(want)))
            continue;
        if (bad++ == 0)
            first = wordOf(inputs[i]);
    }
    return bad;
}

/** The positive bit patterns around which the kernel changes case:
 *  tanhf's and expm1f's thresholds (an expm1f threshold on 2|x| sits
 *  one exponent step above the tanh input), infinity, and every
 *  boundary of expm1's k = trunc(2|x|/ln2 +- 0.5), up to |x| = 22. */
std::vector<std::uint32_t>
caseBoundaries()
{
    std::vector<std::uint32_t> v = {
        0x24000000, 0x41b00000, 0x3f800000, 0x7f800000,
        0x3eb17218 - 0x00800000, 0x3f851592 - 0x00800000,
        0x33000000 - 0x00800000,
    };
    for (int j = 1; j <= 64; ++j)
        v.push_back(wordOf(float((j - 0.5) * std::log(2.0) / 2.0)));
    return v;
}

/** Inputs whose tanh lies so near a rounding boundary that a one-ulp
 *  change to Q1, up or down, flips the output: 239 such positive
 *  inputs exist, and no strided sweep is dense enough to meet one.
 *  (A one-ulp change to Q2-Q5 flips no output at all.) */
const std::uint32_t nearTies[] = {
    0x3d39fb61, 0x3e0aa71e, 0x3e29e8f3, 0x3e3eca37, 0x3f9ca995,
    0x3d1c9770, 0x3dfbe9ff, 0x3e1f1efa, 0x3e3952a6,
};

TEST(TanhKernelTest, MatchesFdlibmOnStridedSweepAndBoundaries)
{
    std::vector<float> inputs;
    for (std::uint32_t u : nearTies) {
        inputs.push_back(floatOf(u));
        inputs.push_back(floatOf(u | 0x80000000u));
    }
    // Every 997th bit pattern: a prime stride, so the sweep walks
    // through every exponent with varied mantissas.
    for (std::uint64_t u = 0; u < (std::uint64_t(1) << 32); u += 997)
        inputs.push_back(floatOf(std::uint32_t(u)));
    const std::int64_t ulps = 4096;
    for (std::uint32_t centre : caseBoundaries()) {
        for (std::int64_t d = -ulps; d <= ulps; ++d) {
            const std::uint32_t u = std::uint32_t(std::int64_t(centre) + d);
            inputs.push_back(floatOf(u));
            inputs.push_back(floatOf(u | 0x80000000u));
        }
    }
    std::uint32_t first = 0;
    EXPECT_EQ(countMismatches(inputs, first), 0u)
        << "first mismatch at input bits 0x" << std::hex << first;
}

/** All 2^32 inputs, split across the host's threads. It runs in tens
 *  of seconds, so it is disabled by default; run it with
 *  --gtest_also_run_disabled_tests. */
TEST(TanhKernelTest, DISABLED_MatchesFdlibmOnAllInputs)
{
    const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
    const std::uint64_t total = std::uint64_t(1) << 32;
    const std::uint64_t block = 1 << 16;
    std::vector<std::uint64_t> bad(workers, 0);
    std::vector<std::uint32_t> first(workers, 0);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            std::vector<float> inputs(block);
            // Blocks are dealt round-robin, so every thread gets a
            // share of the costly in-range inputs.
            for (std::uint64_t base = w * block; base < total;
                 base += workers * block) {
                for (std::uint64_t i = 0; i < block; ++i)
                    inputs[i] = floatOf(std::uint32_t(base + i));
                std::uint32_t f = 0;
                const std::uint64_t n = countMismatches(inputs, f);
                if (n != 0 && bad[w] == 0)
                    first[w] = f;
                bad[w] += n;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned w = 0; w < workers; ++w)
        EXPECT_EQ(bad[w], 0u) << "first mismatch at input bits 0x"
                              << std::hex << first[w];
}

} // namespace
