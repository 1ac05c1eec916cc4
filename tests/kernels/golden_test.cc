/**
 * @file
 * Pinned output digests of the functional kernels. Each kernel runs
 * over ragged shapes (1x1, prime widths, a single row or column,
 * widths below 8) on fixed pseudo-random inputs, and the digest of its
 * output bits must equal the value pinned here. The values were taken
 * from the scalar backend of the former hand-vectorised kernels, which
 * every backend matched bit for bit, so any rewrite of a kernel for
 * speed has to keep these bits. Atan2, Sigmoid and the ISP's gamma
 * call libm, so their digests also pin glibc's float results. Tanh
 * calls no libm: its digest pins the in-tree transcription of fdlibm's
 * tanhf (kernels/elemwise.cc), which tanh_test.cc holds to fdlibm on
 * every input.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "kernels/elemwise.hh"
#include "kernels/filters.hh"
#include "kernels/rnn.hh"
#include "kernels/vision.hh"

using namespace relief;

namespace
{

struct Shape
{
    int w;
    int h;
};

/** A single pixel, widths below 8, prime sizes, a single row or
 *  column, and one plane wide enough for a vectorised interior. */
const Shape shapes[] = {{1, 1},  {2, 2},   {3, 3},  {5, 5},
                        {7, 3},  {3, 7},   {17, 9}, {31, 7},
                        {64, 33}, {3, 1},  {1, 7}};

/** FNV-1a over 32-bit words, as perfbench's output_digest folds a
 *  leaf's output. */
class Digest
{
  public:
    void
    add(const float *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &p[i], sizeof bits);
            h_ = (h_ ^ bits) * 1099511628211ull;
        }
    }

    void add(const std::vector<float> &v) { add(v.data(), v.size()); }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

void
expectDigest(const char *what, const Digest &got, std::uint64_t want)
{
    EXPECT_EQ(got.value(), want)
        << what << ": got 0x" << std::hex << got.value();
}

/** xorshift32, so the inputs do not depend on the standard library's
 *  distributions. */
std::uint32_t
nextRandom(std::uint32_t &state)
{
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
}

/** Values in [-0.5, 1) with exact zeros sprinkled in, so the guarded
 *  ops (Div, Sqrt, the NMS gates) take both paths. */
std::vector<float>
makeInput(std::size_t n, std::uint32_t seed)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = -0.5f + 1.5f * float(nextRandom(seed) >> 8) / 16777216.0f;
    for (std::size_t i = 0; i < n; i += 7)
        v[i] = 0.0f;
    return v;
}

/** Directions spanning all four Canny angle classes, positive and
 *  negative angles. */
std::vector<float>
makeDirections(std::size_t n)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = float(M_PI) * (float(i % 73) / 36.0f - 1.0f);
    return v;
}

std::size_t
area(Shape s)
{
    return std::size_t(s.w) * std::size_t(s.h);
}

Digest
convDigest(std::initializer_list<Filter2D> filters)
{
    Digest d;
    for (Shape s : shapes) {
        auto in = makeInput(area(s), 11);
        std::vector<float> out(area(s));
        for (const Filter2D &filter : filters) {
            convolveBuf(in.data(), s.w, s.h, filter, out.data());
            d.add(out);
        }
    }
    return d;
}

} // namespace

TEST(SimdGoldenTest, ConvRowsMatchScalarBitwise)
{
    expectDigest("conv 3x3",
                 convDigest({sobelX(), sobelY(), gaussianFilter(3)}),
                 0xadac4d68aaa19d80ull);
    expectDigest("conv 5x5", convDigest({gaussianFilter(5), boxFilter(5)}),
                 0xaab373d18c627ac9ull);
    expectDigest("conv other sizes",
                 convDigest({identityFilter(1), boxFilter(2), boxFilter(4)}),
                 0x3075ec9b5a70b2cbull);
}

TEST(SimdGoldenTest, CannyNmsMatchesScalarBitwise)
{
    Digest d;
    for (Shape s : shapes) {
        // Magnitudes are non-negative; the zeros leave ties in the
        // data so a >= vs > slip would show.
        auto mag = makeInput(area(s), 13);
        for (float &m : mag)
            m = std::fabs(m);
        auto dir = makeDirections(area(s));
        std::vector<float> out(area(s));
        cannyNonMaxBuf(mag.data(), dir.data(), s.w, s.h, out.data());
        d.add(out);
    }
    expectDigest("canny NMS", d, 0x1d33bbe000192c9ull);
}

TEST(SimdGoldenTest, HarrisNmsMatchesScalarBitwise)
{
    Digest d;
    for (Shape s : shapes) {
        auto in = makeInput(area(s), 14); // mixed signs: the > 0 gate
        std::vector<float> out(area(s));
        harrisNonMaxBuf(in.data(), s.w, s.h, out.data());
        d.add(out);
    }
    expectDigest("harris NMS", d, 0x9ea0035997bc27c3ull);
}

TEST(SimdGoldenTest, Bt601AndCcmClampMatchScalarBitwise)
{
    const float ccm[3][3] = {{1.7f, -0.5f, -0.2f},
                             {-0.3f, 1.6f, -0.3f},
                             {-0.2f, -0.5f, 1.7f}};
    Digest gray, color, isp_out;
    for (Shape s : shapes) {
        const std::size_t n = area(s);
        auto r = makeInput(n, 15);
        auto g = makeInput(n, 16);
        auto b = makeInput(n, 17);
        std::vector<float> out(n);
        grayscaleBuf(r.data(), g.data(), b.data(), out.data(), n);
        gray.add(out);
        ccmClamp(r.data(), g.data(), b.data(), n, ccm);
        color.add(r);
        color.add(g);
        color.add(b);

        // The whole ISP around the CCM: demosaic, CCM, gamma.
        BayerImage raw(s.w, s.h);
        std::uint32_t state = 18;
        for (auto &sample : raw.data)
            sample = std::uint16_t(nextRandom(state) % 4096);
        RgbImage rgb = isp(raw);
        isp_out.add(rgb.r.data());
        isp_out.add(rgb.g.data());
        isp_out.add(rgb.b.data());
    }
    expectDigest("BT.601", gray, 0x651f666c11d986a2ull);
    expectDigest("CCM + clamp", color, 0xd6330e5172d28c9ull);
    expectDigest("ISP", isp_out, 0xb1c24086791df9f6ull);
}

TEST(SimdGoldenTest, ElemwiseOpsMatchScalarBitwise)
{
    const struct
    {
        ElemOp op;
        std::uint64_t digest;
    } pinned[] = {
        {ElemOp::Add, 0x9d567fd9cb602a76ull},
        {ElemOp::Sub, 0x537c0275cdde0fe4ull},
        {ElemOp::Mul, 0x279943ad91bee5a7ull},
        {ElemOp::Div, 0x28002220d44803dfull},
        {ElemOp::Sqr, 0xf33f329a26122160ull},
        {ElemOp::Sqrt, 0x623a94b24aae826aull},
        {ElemOp::Atan2, 0x754d68211c11286bull},
        {ElemOp::Tanh, 0x160855b38754c761ull},
        {ElemOp::Sigmoid, 0x8164762f3bc5f27aull},
        {ElemOp::Scale, 0xc359c8a9a4225cbfull},
        {ElemOp::OneMinus, 0x3061ce0ea6b74cf6ull},
    };
    for (const auto &p : pinned) {
        Digest d;
        for (Shape s : shapes) {
            const std::size_t n = area(s);
            auto a = makeInput(n, 19); // has exact zeros: Div guard
            auto b = makeInput(n, 20);
            std::vector<float> out(n);
            elemwiseBuf(p.op, a.data(), b.data(), 0.75f, out.data(), n);
            d.add(out);
        }
        expectDigest(elemOpName(p.op), d, p.digest);
    }
}

TEST(SimdGoldenTest, GradMagAndRnnGateMatchScalarBitwise)
{
    Digest mag, gate;
    for (Shape s : shapes) {
        const std::size_t n = area(s);
        Plane gx(s.w, s.h), gy(s.w, s.h);
        gx.data() = makeInput(n, 21);
        gy.data() = makeInput(n, 22);
        mag.add(gradientMagnitude(gx, gy).data());

        auto w = makeInput(n, 23);
        auto x = makeInput(n, 24);
        auto u = makeInput(n, 25);
        auto h = makeInput(n, 26);
        auto bias = makeInput(n, 27);
        std::vector<float> out(n);
        gatePreActivation(w.data(), x.data(), u.data(), h.data(),
                          bias.data(), out.data(), n);
        gate.add(out);
    }
    expectDigest("gradient magnitude", mag, 0xa51556100d8f9233ull);
    expectDigest("gate pre-activation", gate, 0xfb03e168c60054d2ull);
}
