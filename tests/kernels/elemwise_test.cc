/** @file Unit tests for elementwise operations. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "kernels/elemwise.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

const std::vector<float> a = {1.0f, 4.0f, -2.0f, 0.25f};
const std::vector<float> b = {2.0f, 0.5f, -1.0f, 4.0f};

TEST(ElemwiseTest, BinaryClassification)
{
    EXPECT_TRUE(elemOpIsBinary(ElemOp::Add));
    EXPECT_TRUE(elemOpIsBinary(ElemOp::Atan2));
    EXPECT_FALSE(elemOpIsBinary(ElemOp::Tanh));
    EXPECT_FALSE(elemOpIsBinary(ElemOp::Scale));
}

TEST(ElemwiseTest, AddSubMulDiv)
{
    auto add = elemwise(ElemOp::Add, a, &b);
    auto sub = elemwise(ElemOp::Sub, a, &b);
    auto mul = elemwise(ElemOp::Mul, a, &b);
    auto div = elemwise(ElemOp::Div, a, &b);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(add[i], a[i] + b[i]);
        EXPECT_FLOAT_EQ(sub[i], a[i] - b[i]);
        EXPECT_FLOAT_EQ(mul[i], a[i] * b[i]);
        EXPECT_FLOAT_EQ(div[i], a[i] / b[i]);
    }
}

TEST(ElemwiseTest, DivByZeroIsGuarded)
{
    std::vector<float> zero = {0.0f};
    std::vector<float> one = {1.0f};
    auto out = elemwise(ElemOp::Div, one, &zero);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
}

TEST(ElemwiseTest, DivGuardMatchesFloatCompare)
{
    // The kernel tests |b| > 1e-12 on the bits; it must agree with the
    // float compare on the guard's edges, infinities, NaN and random
    // bit patterns, bit for bit.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float eps = 1e-12f;
    std::vector<float> num, den;
    for (float d : {0.0f, -0.0f, eps, -eps, std::nextafter(eps, 1.0f),
                    -std::nextafter(eps, 1.0f), inf, -inf, nan, -nan,
                    1.0f, -3.0f}) {
        for (float n : {1.0f, -0.0f, inf, nan}) {
            num.push_back(n);
            den.push_back(d);
        }
    }
    std::uint32_t state = 1;
    for (int i = 0; i < 65536; ++i) {
        std::uint32_t words[2];
        for (std::uint32_t &w : words) {
            state = state * 1664525u + 1013904223u;
            w = state;
        }
        float n, d;
        std::memcpy(&n, &words[0], sizeof n);
        std::memcpy(&d, &words[1], sizeof d);
        num.push_back(n);
        den.push_back(d);
    }
    auto out = elemwise(ElemOp::Div, num, &den);
    for (std::size_t i = 0; i < num.size(); ++i) {
        const float want = std::abs(den[i]) > eps ? num[i] / den[i] : 0.0f;
        std::uint32_t got_bits, want_bits;
        std::memcpy(&got_bits, &out[i], sizeof got_bits);
        std::memcpy(&want_bits, &want, sizeof want_bits);
        ASSERT_EQ(got_bits, want_bits) << num[i] << " / " << den[i];
    }
}

TEST(ElemwiseTest, SqrAndSqrt)
{
    auto sqr = elemwise(ElemOp::Sqr, a);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(sqr[i], a[i] * a[i]);
    auto root = elemwise(ElemOp::Sqrt, sqr);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(root[i], std::abs(a[i]), 1e-5);
}

TEST(ElemwiseTest, SqrtOfNegativeIsZero)
{
    std::vector<float> neg = {-4.0f};
    EXPECT_FLOAT_EQ(elemwise(ElemOp::Sqrt, neg)[0], 0.0f);
}

TEST(ElemwiseTest, Atan2MatchesStdlib)
{
    auto out = elemwise(ElemOp::Atan2, a, &b);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(out[i], std::atan2(a[i], b[i]));
}

TEST(ElemwiseTest, TanhAndSigmoid)
{
    auto t = elemwise(ElemOp::Tanh, a);
    auto s = elemwise(ElemOp::Sigmoid, a);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(t[i], std::tanh(a[i]));
        EXPECT_FLOAT_EQ(s[i], 1.0f / (1.0f + std::exp(-a[i])));
        EXPECT_GT(s[i], 0.0f);
        EXPECT_LT(s[i], 1.0f);
    }
}

TEST(ElemwiseTest, ScaleAndOneMinus)
{
    auto scaled = elemwise(ElemOp::Scale, a, nullptr, 2.5f);
    auto omz = elemwise(ElemOp::OneMinus, a);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(scaled[i], a[i] * 2.5f);
        EXPECT_FLOAT_EQ(omz[i], 1.0f - a[i]);
    }
}

TEST(ElemwiseTest, BinaryWithoutSecondOperandPanics)
{
    EXPECT_THROW(elemwise(ElemOp::Add, a, nullptr), PanicError);
}

TEST(ElemwiseTest, SizeMismatchPanics)
{
    std::vector<float> small = {1.0f};
    EXPECT_THROW(elemwise(ElemOp::Add, a, &small), PanicError);
}

TEST(ElemwiseTest, PlaneOverloadMatchesVectorForm)
{
    Plane p(2, 2);
    p.data() = {1.0f, 2.0f, 3.0f, 4.0f};
    Plane q = elemwise(ElemOp::Sqr, p);
    EXPECT_FLOAT_EQ(q.at(1, 1), 16.0f);
    EXPECT_EQ(q.width(), 2);
    EXPECT_EQ(q.height(), 2);
}

TEST(ElemwiseTest, PlaneShapeMismatchPanics)
{
    Plane p(2, 2), q(3, 2);
    EXPECT_THROW(elemwise(ElemOp::Add, p, &q), PanicError);
}

} // namespace
} // namespace relief
