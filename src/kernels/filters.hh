/**
 * @file
 * 2-D convolution kernel (the `convolution` accelerator's function) and
 * standard filter factories. The hardware supports filters up to 5x5
 * (Table I), which the factories respect.
 */

#ifndef RELIEF_KERNELS_FILTERS_HH
#define RELIEF_KERNELS_FILTERS_HH

#include <array>

#include "kernels/image.hh"

namespace relief
{

/** Square convolution filter, edge length 1..5. */
class Filter2D
{
  public:
    explicit Filter2D(int size);

    int size() const { return size_; }

    float &at(int x, int y) { return taps_[idx(x, y)]; }
    float at(int x, int y) const { return taps_[idx(x, y)]; }

    /** Raw taps, row-major [y * size + x] — the order convolve()
     *  sums them in. */
    const float *taps() const { return taps_.data(); }

    /** Sum of all taps (1.0 for normalized smoothing filters). */
    float tapSum() const;

    /** 180-degree rotated copy (Richardson-Lucy's mirrored PSF). */
    Filter2D flipped() const;

  private:
    std::size_t
    idx(int x, int y) const
    {
        return std::size_t(y) * std::size_t(size_) + std::size_t(x);
    }

    int size_;
    std::array<float, 25> taps_{};
};

/** Normalized Gaussian smoothing filter (@p size 3 or 5). */
Filter2D gaussianFilter(int size, float sigma = 1.0f);

/** Normalized box filter. */
Filter2D boxFilter(int size);

/** Sobel horizontal-gradient filter (3x3). */
Filter2D sobelX();

/** Sobel vertical-gradient filter (3x3). */
Filter2D sobelY();

/** Identity filter of @p size (center tap 1). */
Filter2D identityFilter(int size);

/** Convolve @p input with @p filter, clamping at borders. */
Plane convolve(const Plane &input, const Filter2D &filter);

/** convolve() into an existing same-shape Plane (pooled scratch). */
void convolveInto(const Plane &input, const Filter2D &filter, Plane &out);

/** Raw-buffer convolve: @p src and @p dst are w*h row-major planes.
 *  The DAG builders use this to skip the Plane copies. */
void convolveBuf(const float *src, int w, int h, const Filter2D &filter,
                 float *dst);

/** Fused gradient magnitude sqrt(gx^2 + gy^2), guarded exactly like
 *  the Sqr/Sqr/Add/Sqrt elemwise chain (bit-identical to it). */
Plane gradientMagnitude(const Plane &gx, const Plane &gy);

} // namespace relief

#endif // RELIEF_KERNELS_FILTERS_HH
