#include "kernels/vision.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "kernels/elemwise.hh"
#include "kernels/scratch.hh"
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

float
clamp01(float v)
{
    v = v < 0.0f ? 0.0f : v;
    return v > 1.0f ? 1.0f : v;
}

/**
 * Canny NMS of pixel @p x: keep its magnitude if it is no smaller than
 * both neighbours along the quantised gradient direction. @p m0, @p m1
 * and @p m2 are the magnitude rows above, at and below; @p xl and
 * @p xr the neighbour columns (x -/+ 1, clamped at the borders).
 * Every candidate is loaded and the angle class picked by selects, not
 * branches, so the interior loop vectorises.
 */
float
cannyNmsPixel(const float *m0, const float *m1, const float *m2,
              float dir, int xl, int x, int xr)
{
    float deg = dir * 180.0f / float(M_PI);
    // Fold negative angles up by 180. Adding +0 otherwise keeps every
    // class, and an unconditional add keeps the loop branch-free.
    deg += deg < 0.0f ? 180.0f : 0.0f;
    // Classes 0, 45, 90 and 135 degrees, tested in that order.
    const bool k0 = (deg < 22.5f) | (deg >= 157.5f);
    const bool k45 = deg < 67.5f;
    const bool k90 = deg < 112.5f;
    const float al = m0[xl], ac = m0[x], ar = m0[xr]; // above
    const float ml = m1[xl], mr = m1[xr];
    const float bl = m2[xl], bc = m2[x], br = m2[xr]; // below
    const float n1 = k0 ? mr : k45 ? br : k90 ? bc : bl;
    const float n2 = k0 ? ml : k45 ? al : k90 ? ac : ar;
    const float v = m1[x];
    return (v >= n1) & (v >= n2) ? v : 0.0f;
}

/** Harris NMS of pixel @p x: keep a positive response that no
 *  8-neighbour exceeds (rows and columns as for cannyNmsPixel()). */
float
harrisNmsPixel(const float *r0, const float *r1, const float *r2, int xl,
               int x, int xr)
{
    const float v = r1[x];
    const bool any = (r0[xl] > v) | (r0[x] > v) | (r0[xr] > v) |
                     (r1[xl] > v) | (r1[xr] > v) | (r2[xl] > v) |
                     (r2[x] > v) | (r2[xr] > v);
    return (v > 0.0f) & !any ? v : 0.0f;
}

/** Run a 3x3-neighbourhood pixel function over a w*h plane, clamping
 *  rows and the border columns; @p pixel(rows, y, xl, x, xr). */
template <class PixelFn>
void
forEach3x3(const float *src, int w, int h, float *out, PixelFn pixel)
{
    for (int y = 0; y < h; ++y) {
        const float *r0 = src + std::size_t(std::max(y - 1, 0)) * w;
        const float *r1 = src + std::size_t(y) * w;
        const float *r2 = src + std::size_t(std::min(y + 1, h - 1)) * w;
        float *o = out + std::size_t(y) * w;
        if (w > 0)
            o[0] = pixel(r0, r1, r2, y, 0, 0, std::min(1, w - 1));
        for (int x = 1; x < w - 1; ++x)
            o[x] = pixel(r0, r1, r2, y, x - 1, x, x + 1);
        if (w > 1)
            o[w - 1] = pixel(r0, r1, r2, y, w - 2, w - 1, w - 1);
    }
}

} // namespace

void
ccmClamp(float *r, float *g, float *b, std::size_t n,
         const float ccm[3][3])
{
    // Local copy: the stores below could otherwise alias the matrix.
    float k[3][3];
    std::copy(&ccm[0][0], &ccm[0][0] + 9, &k[0][0]);
    for (std::size_t i = 0; i < n; ++i) {
        const float rr = r[i], gg = g[i], bb = b[i];
        r[i] = clamp01(k[0][0] * rr + k[0][1] * gg + k[0][2] * bb);
        g[i] = clamp01(k[1][0] * rr + k[1][1] * gg + k[1][2] * bb);
        b[i] = clamp01(k[2][0] * rr + k[2][1] * gg + k[2][2] * bb);
    }
}

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
    ccmClamp(r, g, b, n, params.ccm);
    const float inv_gamma = 1.0f / params.gamma;
    for (float *p : {r, g, b})
        for (std::size_t i = 0; i < n; ++i)
            p[i] = std::pow(p[i], inv_gamma);
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
    for (std::size_t i = 0; i < n; ++i)
        out[i] = 0.299f * r[i] + 0.587f * g[i] + 0.114f * b[i];
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
    forEach3x3(magnitude, w, h, out,
               [direction, w](const float *m0, const float *m1,
                              const float *m2, int y, int xl, int x,
                              int xr) {
                   return cannyNmsPixel(
                       m0, m1, m2, direction[std::size_t(y) * w + x],
                       xl, x, xr);
               });
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
    forEach3x3(response, w, h, out,
               [](const float *r0, const float *r1, const float *r2, int,
                  int xl, int x, int xr) {
                   return harrisNmsPixel(r0, r1, r2, xl, x, xr);
               });
}

Plane
cannyReference(const BayerImage &raw, float low_t, float high_t)
{
    Plane gray = grayscale(isp(raw));
    Plane smooth = convolve(gray, gaussianFilter(5));
    Plane gx = convolve(smooth, sobelX());
    Plane gy = convolve(smooth, sobelY());
    Plane nms = cannyNonMax(gradientMagnitude(gx, gy),
                            elemwise(ElemOp::Atan2, gy, &gx));
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
    Plane ratio(blurred.width(), blurred.height());
    Plane correction(blurred.width(), blurred.height());
    for (int it = 0; it < iterations; ++it) {
        // Reblur, guarded ratio against the observation, correction
        // blur, multiply into the running estimate.
        convolveInto(estimate, psf, ratio);
        elemwiseInto(ElemOp::Div, blurred, &ratio, 1.0f, ratio);
        convolveInto(ratio, mirrored, correction);
        elemwiseInto(ElemOp::Mul, estimate, &correction, 1.0f, estimate);
    }
    return estimate;
}

} // namespace relief
