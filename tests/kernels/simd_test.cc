/**
 * @file
 * Golden bit-identity suite for the SIMD kernel engine: every row
 * primitive of every compiled-in backend must produce *bit-identical*
 * output to the scalar backend (kernels/simd/simd.hh's contract), on
 * shapes chosen to exercise the vector body, the scalar tails, and
 * the degenerate widths below one vector (1x1, prime widths, width <
 * lane count). Plus coverage of the dispatch surface itself: name
 * round-trips, RELIEF_KERNEL_ISA, setKernelIsa forcing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "kernels/filters.hh"
#include "kernels/simd/simd.hh"
#include "sim/logging.hh"

using namespace relief;

namespace
{

struct Shape
{
    int w;
    int h;
};

/** Ragged shapes: vector body + tail, width < any lane count, single
 *  pixel, prime dimensions, single row/column. */
const Shape shapes[] = {{1, 1},  {2, 2},  {3, 3},  {5, 5},
                        {7, 3},  {3, 7},  {17, 9}, {31, 7},
                        {64, 33}, {3, 1},  {1, 7}};

/** ISAs we can actually run here: compiled in and CPU-supported. */
std::vector<KernelIsa>
runnableIsas()
{
    std::vector<KernelIsa> out;
    for (KernelIsa isa : compiledKernelIsas())
        if (kernelIsaSupported(isa))
            out.push_back(isa);
    return out;
}

/** Deterministic input with exact zeros and negatives sprinkled in so
 *  the guarded ops (Div, Sqrt, NMS early-outs) take both paths. */
std::vector<float>
makeInput(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-0.5f, 1.0f);
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = dist(rng);
    for (std::size_t i = 0; i < n; i += 7)
        v[i] = 0.0f;
    return v;
}

/** Direction plane spanning all four Canny quantization classes,
 *  positive and negative angles. */
std::vector<float>
makeDirections(std::size_t n)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = float(M_PI) * (float(i % 73) / 36.0f - 1.0f);
    return v;
}

void
expectSamePlane(const std::vector<float> &a, const std::vector<float> &b,
                const char *what, KernelIsa isa, Shape s)
{
    ASSERT_EQ(a.size(), b.size());
    bool same = std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(float)) == 0;
    EXPECT_TRUE(same) << what << " not bit-identical under "
                      << kernelIsaName(isa) << " at " << s.w << "x"
                      << s.h;
}

/** Clamped row-pointer window for conv/NMS drivers. */
void
clampedRows(const float *base, int w, int h, int y, int half,
            const float **rows)
{
    for (int fy = -half; fy <= half; ++fy) {
        int yy = std::min(std::max(y + fy, 0), h - 1);
        rows[fy + half] = base + std::size_t(yy) * w;
    }
}

void
runConvPlane(const KernelOps &ops, const std::vector<float> &in,
             const Filter2D &filter, int w, int h,
             std::vector<float> &out)
{
    int half = filter.size() / 2;
    const float *rows[7];
    for (int y = 0; y < h; ++y) {
        clampedRows(in.data(), w, h, y, half, rows);
        ops.convRow(rows, w, filter.taps(), filter.size(),
                    out.data() + std::size_t(y) * w);
    }
}

} // namespace

TEST(SimdDispatchTest, NamesRoundTrip)
{
    for (KernelIsa isa :
         {KernelIsa::Scalar, KernelIsa::Sse42, KernelIsa::Avx2,
          KernelIsa::Neon})
        EXPECT_EQ(kernelIsaFromName(kernelIsaName(isa)), isa);
    EXPECT_THROW(kernelIsaFromName("mmx"), FatalError);
}

TEST(SimdDispatchTest, ScalarAlwaysCompiledAndSupported)
{
    auto compiled = compiledKernelIsas();
    ASSERT_FALSE(compiled.empty());
    EXPECT_EQ(compiled.front(), KernelIsa::Scalar);
    EXPECT_TRUE(kernelIsaSupported(KernelIsa::Scalar));
}

TEST(SimdDispatchTest, SetKernelIsaForcesTheActiveBackend)
{
    for (KernelIsa isa : runnableIsas()) {
        setKernelIsa(isa);
        EXPECT_EQ(activeKernelIsa(), isa);
        EXPECT_EQ(kernelOps().isa, isa);
    }
    resetKernelIsaForTesting();
}

TEST(SimdDispatchTest, EnvironmentOverrideWins)
{
    // gtest_discover_tests runs each test in its own process, so the
    // env mutation cannot leak into other tests.
    ASSERT_EQ(setenv("RELIEF_KERNEL_ISA", "scalar", 1), 0);
    resetKernelIsaForTesting();
    EXPECT_EQ(activeKernelIsa(), KernelIsa::Scalar);
    ASSERT_EQ(unsetenv("RELIEF_KERNEL_ISA"), 0);
    resetKernelIsaForTesting();
}

TEST(SimdDispatchTest, ActiveIsaIsRunnable)
{
    resetKernelIsaForTesting();
    // Whatever the probe picked must be supported here, and its ops
    // table must agree on identity and lane width.
    KernelIsa isa = activeKernelIsa();
    EXPECT_TRUE(kernelIsaSupported(isa));
    const KernelOps &ops = kernelOpsFor(isa);
    EXPECT_EQ(ops.isa, isa);
    EXPECT_GE(ops.laneWidth, 1);
}

TEST(SimdDispatchTest, ElemOpVectorizedClassification)
{
    // Transcendentals are scalar by contract (libm bit-identity).
    EXPECT_FALSE(elemOpVectorized(ElemOp::Atan2));
    EXPECT_FALSE(elemOpVectorized(ElemOp::Tanh));
    EXPECT_FALSE(elemOpVectorized(ElemOp::Sigmoid));
    for (ElemOp op : {ElemOp::Add, ElemOp::Sub, ElemOp::Mul,
                      ElemOp::Div, ElemOp::Sqr, ElemOp::Sqrt,
                      ElemOp::Scale, ElemOp::OneMinus})
        EXPECT_TRUE(elemOpVectorized(op));
}

TEST(SimdGoldenTest, ConvRowsMatchScalarBitwise)
{
    const KernelOps &scalar = kernelOpsFor(KernelIsa::Scalar);
    for (KernelIsa isa : runnableIsas()) {
        const KernelOps &ops = kernelOpsFor(isa);
        for (Shape s : shapes) {
            std::size_t n = std::size_t(s.w) * s.h;
            auto in = makeInput(n, 11);
            std::vector<float> ref(n), got(n);
            for (const Filter2D &filter :
                 {sobelX(), sobelY(), gaussianFilter(3),
                  gaussianFilter(5), boxFilter(5)}) {
                runConvPlane(scalar, in, filter, s.w, s.h, ref);
                runConvPlane(ops, in, filter, s.w, s.h, got);
                expectSamePlane(ref, got, "convRow", isa, s);
            }
        }
    }
}

TEST(SimdGoldenTest, CannyNmsMatchesScalarBitwise)
{
    const KernelOps &scalar = kernelOpsFor(KernelIsa::Scalar);
    for (KernelIsa isa : runnableIsas()) {
        const KernelOps &ops = kernelOpsFor(isa);
        for (Shape s : shapes) {
            std::size_t n = std::size_t(s.w) * s.h;
            auto mag = makeInput(n, 13);
            // Magnitudes are non-negative in the real pipeline; keep
            // ties in the data so >= vs > asymmetries would show.
            for (float &m : mag)
                m = std::fabs(m);
            auto dir = makeDirections(n);
            std::vector<float> ref(n), got(n);
            const float *rows[3];
            for (int y = 0; y < s.h; ++y) {
                clampedRows(mag.data(), s.w, s.h, y, 1, rows);
                scalar.cannyNmsRow(rows,
                                   dir.data() + std::size_t(y) * s.w,
                                   s.w,
                                   ref.data() + std::size_t(y) * s.w);
                ops.cannyNmsRow(rows,
                                dir.data() + std::size_t(y) * s.w, s.w,
                                got.data() + std::size_t(y) * s.w);
            }
            expectSamePlane(ref, got, "cannyNmsRow", isa, s);
        }
    }
}

TEST(SimdGoldenTest, HarrisNmsMatchesScalarBitwise)
{
    const KernelOps &scalar = kernelOpsFor(KernelIsa::Scalar);
    for (KernelIsa isa : runnableIsas()) {
        const KernelOps &ops = kernelOpsFor(isa);
        for (Shape s : shapes) {
            std::size_t n = std::size_t(s.w) * s.h;
            auto in = makeInput(n, 14); // mixed signs: the <= 0 gate
            std::vector<float> ref(n), got(n);
            const float *rows[3];
            for (int y = 0; y < s.h; ++y) {
                clampedRows(in.data(), s.w, s.h, y, 1, rows);
                scalar.harrisNmsRow(rows, s.w,
                                    ref.data() + std::size_t(y) * s.w);
                ops.harrisNmsRow(rows, s.w,
                                 got.data() + std::size_t(y) * s.w);
            }
            expectSamePlane(ref, got, "harrisNmsRow", isa, s);
        }
    }
}

TEST(SimdGoldenTest, Bt601AndCcmClampMatchScalarBitwise)
{
    const KernelOps &scalar = kernelOpsFor(KernelIsa::Scalar);
    const float ccm[3][3] = {{1.7f, -0.5f, -0.2f},
                             {-0.3f, 1.6f, -0.3f},
                             {-0.2f, -0.5f, 1.7f}};
    for (KernelIsa isa : runnableIsas()) {
        const KernelOps &ops = kernelOpsFor(isa);
        for (Shape s : shapes) {
            std::size_t n = std::size_t(s.w) * s.h;
            auto r = makeInput(n, 15);
            auto g = makeInput(n, 16);
            auto b = makeInput(n, 17);

            std::vector<float> ref(n), got(n);
            scalar.bt601(r.data(), g.data(), b.data(), ref.data(), n);
            ops.bt601(r.data(), g.data(), b.data(), got.data(), n);
            expectSamePlane(ref, got, "bt601", isa, s);

            auto r2 = r, g2 = g, b2 = b;
            auto r3 = r, g3 = g, b3 = b;
            scalar.ccmClamp(r2.data(), g2.data(), b2.data(), n, ccm);
            ops.ccmClamp(r3.data(), g3.data(), b3.data(), n, ccm);
            expectSamePlane(r2, r3, "ccmClamp (r)", isa, s);
            expectSamePlane(g2, g3, "ccmClamp (g)", isa, s);
            expectSamePlane(b2, b3, "ccmClamp (b)", isa, s);
        }
    }
}

TEST(SimdGoldenTest, ElemwiseOpsMatchScalarBitwise)
{
    const KernelOps &scalar = kernelOpsFor(KernelIsa::Scalar);
    for (KernelIsa isa : runnableIsas()) {
        const KernelOps &ops = kernelOpsFor(isa);
        for (Shape s : shapes) {
            std::size_t n = std::size_t(s.w) * s.h;
            auto a = makeInput(n, 18); // has exact zeros: Div guard
            auto b = makeInput(n, 19);
            std::vector<float> ref(n), got(n);
            for (ElemOp op :
                 {ElemOp::Add, ElemOp::Sub, ElemOp::Mul, ElemOp::Div,
                  ElemOp::Sqr, ElemOp::Sqrt, ElemOp::Scale,
                  ElemOp::OneMinus}) {
                scalar.elemRow(op, a.data(), b.data(), 0.75f,
                               ref.data(), n);
                ops.elemRow(op, a.data(), b.data(), 0.75f, got.data(),
                            n);
                expectSamePlane(ref, got, "elemRow", isa, s);
                // Both must also agree with the shared scalar
                // reference loop (the pre-SIMD semantics).
                std::vector<float> pre(n);
                elemScalarRow(op, a.data(), b.data(), 0.75f,
                              pre.data(), n);
                expectSamePlane(pre, got, "elemRow vs elemScalarRow",
                                isa, s);
            }
        }
    }
}

TEST(SimdGoldenTest, GradMagAndRnnGateMatchScalarBitwise)
{
    const KernelOps &scalar = kernelOpsFor(KernelIsa::Scalar);
    for (KernelIsa isa : runnableIsas()) {
        const KernelOps &ops = kernelOpsFor(isa);
        for (Shape s : shapes) {
            std::size_t n = std::size_t(s.w) * s.h;
            auto gx = makeInput(n, 20);
            auto gy = makeInput(n, 21);
            std::vector<float> ref(n), got(n);
            scalar.gradMag(gx.data(), gy.data(), ref.data(), n);
            ops.gradMag(gx.data(), gy.data(), got.data(), n);
            expectSamePlane(ref, got, "gradMag", isa, s);
            // gradMag must also equal the unfused Sqr/Sqr/Add/Sqrt
            // elemwise chain it replaces.
            std::vector<float> x2(n), y2(n), sum(n), chain(n);
            elemScalarRow(ElemOp::Sqr, gx.data(), nullptr, 1.0f,
                          x2.data(), n);
            elemScalarRow(ElemOp::Sqr, gy.data(), nullptr, 1.0f,
                          y2.data(), n);
            elemScalarRow(ElemOp::Add, x2.data(), y2.data(), 1.0f,
                          sum.data(), n);
            elemScalarRow(ElemOp::Sqrt, sum.data(), nullptr, 1.0f,
                          chain.data(), n);
            expectSamePlane(chain, got, "gradMag vs elemwise chain",
                            isa, s);

            auto w = makeInput(n, 22);
            auto x = makeInput(n, 23);
            auto u = makeInput(n, 24);
            auto h = makeInput(n, 25);
            auto bias = makeInput(n, 26);
            scalar.rnnGatePre(w.data(), x.data(), u.data(), h.data(),
                              bias.data(), ref.data(), n);
            ops.rnnGatePre(w.data(), x.data(), u.data(), h.data(),
                           bias.data(), got.data(), n);
            expectSamePlane(ref, got, "rnnGatePre", isa, s);
        }
    }
}
