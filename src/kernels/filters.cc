#include "kernels/filters.hh"

#include <algorithm>
#include <cmath>

#include "sim/hostprof.hh"
#include "sim/logging.hh"

namespace relief
{

Filter2D::Filter2D(int size) : size_(size)
{
    RELIEF_ASSERT(size >= 1 && size <= 5,
                  "filter size must be 1..5, got ", size);
}

float
Filter2D::tapSum() const
{
    float total = 0.0f;
    for (int y = 0; y < size_; ++y)
        for (int x = 0; x < size_; ++x)
            total += at(x, y);
    return total;
}

Filter2D
Filter2D::flipped() const
{
    Filter2D out(size_);
    for (int y = 0; y < size_; ++y)
        for (int x = 0; x < size_; ++x)
            out.at(x, y) = at(size_ - 1 - x, size_ - 1 - y);
    return out;
}

Filter2D
gaussianFilter(int size, float sigma)
{
    Filter2D f(size);
    int half = size / 2;
    float total = 0.0f;
    for (int y = 0; y < size; ++y) {
        for (int x = 0; x < size; ++x) {
            float dx = float(x - half), dy = float(y - half);
            float v = std::exp(-(dx * dx + dy * dy) /
                               (2.0f * sigma * sigma));
            f.at(x, y) = v;
            total += v;
        }
    }
    for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x)
            f.at(x, y) /= total;
    return f;
}

Filter2D
boxFilter(int size)
{
    Filter2D f(size);
    float v = 1.0f / float(size * size);
    for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x)
            f.at(x, y) = v;
    return f;
}

Filter2D
sobelX()
{
    Filter2D f(3);
    const float taps[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
    for (int i = 0; i < 9; ++i)
        f.at(i % 3, i / 3) = taps[i];
    return f;
}

Filter2D
sobelY()
{
    Filter2D f(3);
    const float taps[9] = {-1, -2, -1, 0, 0, 0, 1, 2, 1};
    for (int i = 0; i < 9; ++i)
        f.at(i % 3, i / 3) = taps[i];
    return f;
}

Filter2D
identityFilter(int size)
{
    Filter2D f(size);
    f.at(size / 2, size / 2) = 1.0f;
    return f;
}

Plane
convolve(const Plane &input, const Filter2D &filter)
{
    Plane out(input.width(), input.height());
    convolveBuf(input.data().data(), input.width(), input.height(),
                filter, out.data().data());
    return out;
}

void
convolveInto(const Plane &input, const Filter2D &filter, Plane &out)
{
    RELIEF_ASSERT(input.sameShape(out),
                  "convolve output shape mismatch");
    convolveBuf(input.data().data(), input.width(), input.height(),
                filter, out.data().data());
}

namespace
{

/** One clamped output pixel: taps summed in row-major tap order. */
float
convPixel(const float *const *rows, int w, int x, const float *taps,
          int fsize)
{
    const int half = fsize / 2;
    float acc = 0.0f;
    for (int fy = 0; fy < fsize; ++fy)
        for (int fx = 0; fx < fsize; ++fx)
            acc += taps[fy * fsize + fx] *
                   rows[fy][std::clamp(x + fx - half, 0, w - 1)];
    return acc;
}

/**
 * Interior pixels [lo, hi) of one output row, which need no horizontal
 * clamp. With the filter size fixed at compile time the tap loops
 * unroll fully, leaving x as the loop the compiler vectorises; each pixel
 * still adds its taps in the same order as convPixel(), so both give
 * the same bits.
 */
template <int FS>
void
convInterior(const float *const *rows, int lo, int hi, const float *taps,
             float *out)
{
    constexpr int half = FS / 2;
    float t[FS * FS];
    std::copy(taps, taps + FS * FS, t);
    for (int x = lo; x < hi; ++x) {
        float acc = 0.0f;
        for (int fy = 0; fy < FS; ++fy)
            for (int fx = 0; fx < FS; ++fx)
                acc += t[fy * FS + fx] * rows[fy][x + fx - half];
        out[x] = acc;
    }
}

/** 2-D convolution of one output row from the @p fsize vertically
 *  clamped input @p rows. */
void
convRow(const float *const *rows, int w, const float *taps, int fsize,
        float *out)
{
    const int half = fsize / 2;
    const int lo = std::min(half, w);
    const int hi = std::max(lo, w - half); // interior is [lo, hi)
    if (fsize == 3)
        convInterior<3>(rows, lo, hi, taps, out);
    else if (fsize == 5)
        convInterior<5>(rows, lo, hi, taps, out);
    else
        for (int x = lo; x < hi; ++x)
            out[x] = convPixel(rows, w, x, taps, fsize);
    for (int x = 0; x < lo; ++x)
        out[x] = convPixel(rows, w, x, taps, fsize);
    for (int x = hi; x < w; ++x)
        out[x] = convPixel(rows, w, x, taps, fsize);
}

} // namespace

void
convolveBuf(const float *src, int w, int h, const Filter2D &filter,
            float *dst)
{
    HostProfScope prof(HostCat::Kernels);
    const int fsize = filter.size();
    const int half = fsize / 2;
    const float *rows[5];
    for (int y = 0; y < h; ++y) {
        for (int fy = 0; fy < fsize; ++fy) {
            int yy = std::clamp(y + fy - half, 0, h - 1);
            rows[fy] = src + std::size_t(yy) * std::size_t(w);
        }
        convRow(rows, w, filter.taps(), fsize,
                dst + std::size_t(y) * std::size_t(w));
    }
}

Plane
gradientMagnitude(const Plane &gx, const Plane &gy)
{
    RELIEF_ASSERT(gx.sameShape(gy),
                  "gradient magnitude: gx/gy shape mismatch");
    HostProfScope prof(HostCat::Kernels);
    Plane out(gx.width(), gx.height());
    const float *x = gx.data().data();
    const float *y = gy.data().data();
    float *o = out.data().data();
    for (std::size_t i = 0; i < out.size(); ++i) {
        const float s = x[i] * x[i] + y[i] * y[i];
        o[i] = s > 0.0f ? std::sqrt(s) : 0.0f;
    }
    return out;
}

} // namespace relief
