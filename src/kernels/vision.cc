#include "kernels/vision.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/elemwise.hh"
#include "kernels/pipeline.hh"
#include "kernels/scratch.hh"
#include "kernels/simd/simd.hh"
#include "sim/hostprof.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

/** Bilinear demosaic of an RGGB mosaic into three full-resolution
 *  channel buffers. */
void
demosaic(const BayerImage &raw, float *r_out, float *g_out, float *b_out)
{
    auto sample = [&raw](int x, int y) {
        x = std::clamp(x, 0, raw.width - 1);
        y = std::clamp(y, 0, raw.height - 1);
        return float(raw.at(x, y)) / 4095.0f;
    };
    auto is_red = [](int x, int y) { return y % 2 == 0 && x % 2 == 0; };
    auto is_blue = [](int x, int y) { return y % 2 == 1 && x % 2 == 1; };

    std::size_t i = 0;
    for (int y = 0; y < raw.height; ++y) {
        for (int x = 0; x < raw.width; ++x, ++i) {
            float r, g, b;
            if (is_red(x, y)) {
                r = sample(x, y);
                g = (sample(x - 1, y) + sample(x + 1, y) +
                     sample(x, y - 1) + sample(x, y + 1)) /
                    4.0f;
                b = (sample(x - 1, y - 1) + sample(x + 1, y - 1) +
                     sample(x - 1, y + 1) + sample(x + 1, y + 1)) /
                    4.0f;
            } else if (is_blue(x, y)) {
                b = sample(x, y);
                g = (sample(x - 1, y) + sample(x + 1, y) +
                     sample(x, y - 1) + sample(x, y + 1)) /
                    4.0f;
                r = (sample(x - 1, y - 1) + sample(x + 1, y - 1) +
                     sample(x - 1, y + 1) + sample(x + 1, y + 1)) /
                    4.0f;
            } else {
                g = sample(x, y);
                if (y % 2 == 0) { // green on a red row
                    r = (sample(x - 1, y) + sample(x + 1, y)) / 2.0f;
                    b = (sample(x, y - 1) + sample(x, y + 1)) / 2.0f;
                } else { // green on a blue row
                    b = (sample(x - 1, y) + sample(x + 1, y)) / 2.0f;
                    r = (sample(x, y - 1) + sample(x, y + 1)) / 2.0f;
                }
            }
            r_out[i] = r;
            g_out[i] = g;
            b_out[i] = b;
        }
    }
}

} // namespace

RgbImage
isp(const BayerImage &raw, const IspParams &params)
{
    RgbImage rgb(raw.width, raw.height);
    ispBuf(raw, rgb.r.data().data(), rgb.g.data().data(),
           rgb.b.data().data(), params);
    return rgb;
}

void
ispBuf(const BayerImage &raw, float *r, float *g, float *b,
       const IspParams &params)
{
    HostProfScope prof(HostCat::Kernels);
    demosaic(raw, r, g, b);
    const std::size_t n = std::size_t(raw.width) * std::size_t(raw.height);
    // CCM + clamp is the vector pass; the per-value op sequence
    // (matrix row, clamp, pow) matches the former fused pixel loop.
    kernelOps().ccmClamp(r, g, b, n, params.ccm);
    const float inv_gamma = 1.0f / params.gamma;
    gammaCorrect(r, n, inv_gamma);
    gammaCorrect(g, n, inv_gamma);
    gammaCorrect(b, n, inv_gamma);
}

Plane
grayscale(const RgbImage &rgb)
{
    Plane out(rgb.width(), rgb.height());
    grayscaleBuf(rgb.r.data().data(), rgb.g.data().data(),
                 rgb.b.data().data(), out.data().data(), out.size());
    return out;
}

void
grayscaleBuf(const float *r, const float *g, const float *b, float *out,
             std::size_t n)
{
    HostProfScope prof(HostCat::Kernels);
    kernelOps().bt601(r, g, b, out, n);
}

Plane
cannyNonMax(const Plane &magnitude, const Plane &direction)
{
    RELIEF_ASSERT(magnitude.sameShape(direction),
                  "canny NMS: magnitude/direction shape mismatch");
    Plane out(magnitude.width(), magnitude.height());
    cannyNonMaxBuf(magnitude.data().data(), direction.data().data(),
                   magnitude.width(), magnitude.height(),
                   out.data().data());
    return out;
}

void
cannyNonMaxBuf(const float *magnitude, const float *direction, int w,
               int h, float *out)
{
    HostProfScope prof(HostCat::Kernels);
    const KernelOps &ops = kernelOps();
    const float *m[3];
    for (int y = 0; y < h; ++y) {
        for (int dy = -1; dy <= 1; ++dy) {
            int yy = std::clamp(y + dy, 0, h - 1);
            m[dy + 1] = magnitude + std::size_t(yy) * std::size_t(w);
        }
        ops.cannyNmsRow(m, direction + std::size_t(y) * std::size_t(w), w,
                        out + std::size_t(y) * std::size_t(w));
    }
}

Plane
edgeTracking(const Plane &nms, float low_t, float high_t)
{
    Plane out(nms.width(), nms.height());
    edgeTrackingBuf(nms.data().data(), nms.width(), nms.height(), low_t,
                    high_t, out.data().data());
    return out;
}

void
edgeTrackingBuf(const float *nms, int w, int h, float low_t, float high_t,
                float *out)
{
    RELIEF_ASSERT(low_t <= high_t,
                  "edge tracking: low threshold above high threshold");
    HostProfScope prof(HostCat::Kernels);
    const std::size_t n = std::size_t(w) * std::size_t(h);
    std::fill(out, out + n, 0.0f);
    // Breadth-first frontier of pixel indices. A pixel is marked before
    // it is queued, so at most n ever enter: one n-slot array, kept
    // across calls on this thread, never grows mid-search.
    thread_local std::vector<std::uint32_t> frontier;
    if (frontier.size() < n)
        frontier.resize(n);
    std::size_t head = 0, tail = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (nms[i] >= high_t) {
            out[i] = 1.0f;
            frontier[tail++] = std::uint32_t(i);
        }
    }
    // Grow strong edges through weak pixels (8-connected).
    while (head < tail) {
        const int x = int(frontier[head] % std::uint32_t(w));
        const int y = int(frontier[head] / std::uint32_t(w));
        ++head;
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                int nx = x + dx, ny = y + dy;
                if (nx < 0 || nx >= w || ny < 0 || ny >= h)
                    continue;
                std::size_t j = std::size_t(ny) * std::size_t(w) +
                                std::size_t(nx);
                if (out[j] == 0.0f && nms[j] >= low_t) {
                    out[j] = 1.0f;
                    frontier[tail++] = std::uint32_t(j);
                }
            }
        }
    }
}

Plane
harrisNonMax(const Plane &response)
{
    Plane out(response.width(), response.height());
    harrisNonMaxBuf(response.data().data(), response.width(),
                    response.height(), out.data().data());
    return out;
}

void
harrisNonMaxBuf(const float *response, int w, int h, float *out)
{
    HostProfScope prof(HostCat::Kernels);
    const KernelOps &ops = kernelOps();
    const float *r[3];
    for (int y = 0; y < h; ++y) {
        for (int dy = -1; dy <= 1; ++dy) {
            int yy = std::clamp(y + dy, 0, h - 1);
            r[dy + 1] = response + std::size_t(yy) * std::size_t(w);
        }
        ops.harrisNmsRow(r, w, out + std::size_t(y) * std::size_t(w));
    }
}

Plane
cannyReference(const BayerImage &raw, float low_t, float high_t)
{
    Plane gray = grayscale(isp(raw));
    // Fused row-tiled smooth -> Sobel -> magnitude/direction -> NMS
    // (bit-identical to the unfused whole-plane chain).
    Plane nms = cannyNmsFromGray(gray, gaussianFilter(5));
    Plane edges = edgeTracking(nms, low_t, high_t);
    // Final elem-matrix boost stage of the DAG: scale the binary edge
    // map to full intensity.
    return elemwise(ElemOp::Scale, edges, nullptr, 1.0f);
}

Plane
harrisReference(const BayerImage &raw, float k)
{
    Plane gray = grayscale(isp(raw));
    HostProfScope prof(HostCat::Kernels);
    const int w = gray.width(), h = gray.height();
    Filter2D window = gaussianFilter(5);
    // Intermediates live in pooled scratch; t0 is recycled for each
    // product plane between convolutions. The per-element op sequence
    // matches the former one-Plane-per-step chain exactly.
    ScratchPlane ix(w, h), iy(w, h), t0(w, h);
    ScratchPlane sxx(w, h), syy(w, h), sxy(w, h);
    ScratchPlane det(w, h), trace(w, h);
    convolveInto(gray, sobelX(), *ix);
    convolveInto(gray, sobelY(), *iy);
    elemwiseInto(ElemOp::Mul, *ix, &*ix, 1.0f, *t0); // ixx
    convolveInto(*t0, window, *sxx);
    elemwiseInto(ElemOp::Mul, *iy, &*iy, 1.0f, *t0); // iyy
    convolveInto(*t0, window, *syy);
    elemwiseInto(ElemOp::Mul, *ix, &*iy, 1.0f, *t0); // ixy
    convolveInto(*t0, window, *sxy);
    // R = det(M) - k * trace(M)^2
    elemwiseInto(ElemOp::Mul, *sxx, &*syy, 1.0f, *det);
    elemwiseInto(ElemOp::Mul, *sxy, &*sxy, 1.0f, *t0);
    elemwiseInto(ElemOp::Sub, *det, &*t0, 1.0f, *det);
    elemwiseInto(ElemOp::Add, *sxx, &*syy, 1.0f, *trace);
    elemwiseInto(ElemOp::Sqr, *trace, nullptr, 1.0f, *trace);
    elemwiseInto(ElemOp::Scale, *trace, nullptr, k, *trace);
    elemwiseInto(ElemOp::Sub, *det, &*trace, 1.0f, *det);
    return harrisNonMax(*det);
}

Plane
richardsonLucy(const Plane &blurred, const Filter2D &psf, int iterations)
{
    RELIEF_ASSERT(iterations >= 1, "RL deblur needs >= 1 iteration");
    HostProfScope prof(HostCat::Kernels);
    Plane estimate = blurred;
    Filter2D mirrored = psf.flipped();
    for (int it = 0; it < iterations; ++it) {
        // One row-tiled pass per iteration: reblur, guarded ratio
        // against the observation, correction blur, multiply into the
        // running estimate — intermediates never leave pooled rings.
        estimate = runRowPipeline(
            estimate, {convStage(psf),
                       zipStage(ElemOp::Div, &blurred, true),
                       convStage(mirrored),
                       zipStage(ElemOp::Mul, &estimate, true)});
    }
    return estimate;
}

} // namespace relief
