/**
 * @file
 * Functional implementations of the remaining vision accelerators (ISP,
 * grayscale, canny-non-max, harris-non-max, edge-tracking) plus whole
 * reference pipelines (Canny, Harris, Richardson-Lucy) used to validate
 * DAG execution end to end.
 */

#ifndef RELIEF_KERNELS_VISION_HH
#define RELIEF_KERNELS_VISION_HH

#include "kernels/filters.hh"
#include "kernels/image.hh"

namespace relief
{

/** ISP tuning knobs (demosaic is bilinear over RGGB). */
struct IspParams
{
    float gamma = 2.2f;
    // Rows of the 3x3 color-correction matrix.
    float ccm[3][3] = {{1.6f, -0.4f, -0.2f},
                       {-0.3f, 1.5f, -0.2f},
                       {-0.2f, -0.4f, 1.6f}};
};

/** Demosaic + color correction + gamma (paper Table I's ISP). */
RgbImage isp(const BayerImage &raw, const IspParams &params = {});

/** isp() into three caller channel buffers of raw.width * raw.height
 *  floats (the DAG builders write the packed [R|G|B] layout this way). */
void ispBuf(const BayerImage &raw, float *r, float *g, float *b,
            const IspParams &params = {});

/** The ISP's colour step: 3x3 colour-correction matrix, then clamp to
 *  [0, 1], in place across three channel buffers of @p n floats. */
void ccmClamp(float *r, float *g, float *b, std::size_t n,
              const float ccm[3][3]);

/** ITU-R BT.601 luma conversion. */
Plane grayscale(const RgbImage &rgb);

/** Raw-buffer BT.601 luma from three channel buffers (the DAG
 *  builders use this to skip the RgbImage repacking copies). */
void grayscaleBuf(const float *r, const float *g, const float *b,
                  float *out, std::size_t n);

/**
 * Canny non-maximum suppression: keep gradient magnitudes that are
 * local maxima along the quantized gradient direction.
 *
 * @param magnitude Gradient magnitude.
 * @param direction Gradient direction in radians (atan2(gy, gx)).
 */
Plane cannyNonMax(const Plane &magnitude, const Plane &direction);

/** Raw-buffer cannyNonMax(): w*h row-major planes; @p out must not
 *  alias an input. */
void cannyNonMaxBuf(const float *magnitude, const float *direction,
                    int w, int h, float *out);

/**
 * Double-threshold hysteresis: pixels above @p high_t are edges; pixels
 * above @p low_t connected (8-way) to an edge are boosted to edges; the
 * rest are suppressed. Output is a 0/1 edge map.
 */
Plane edgeTracking(const Plane &nms, float low_t, float high_t);

/** Raw-buffer edgeTracking() over a w*h plane; @p out must not alias
 *  @p nms. */
void edgeTrackingBuf(const float *nms, int w, int h, float low_t,
                     float high_t, float *out);

/** Keep 3x3-neighborhood maxima above zero; suppress everything else. */
Plane harrisNonMax(const Plane &response);

/** Raw-buffer harrisNonMax() over a w*h plane; @p out must not alias
 *  @p response. */
void harrisNonMaxBuf(const float *response, int w, int h, float *out);

/** Full Canny edge detection (reference for the Canny DAG). */
Plane cannyReference(const BayerImage &raw, float low_t = 0.05f,
                     float high_t = 0.15f);

/** Full Harris corner response + non-max (reference for the Harris
 *  DAG). @p k is the Harris sensitivity constant. */
Plane harrisReference(const BayerImage &raw, float k = 0.04f);

/** Richardson-Lucy deconvolution (reference for the Deblur DAG). */
Plane richardsonLucy(const Plane &blurred, const Filter2D &psf,
                     int iterations);

} // namespace relief

#endif // RELIEF_KERNELS_VISION_HH
