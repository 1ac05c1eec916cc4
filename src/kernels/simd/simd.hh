/**
 * @file
 * SIMD kernel engine — runtime-dispatched, width-agnostic vector
 * backends for the functional kernels.
 *
 * The hot kernels (convolution, NMS, grayscale/CCM, elementwise, RNN
 * gates) are written once as row-oriented primitives templated over a
 * *lane* abstraction (kernels_impl.hh) and instantiated per ISA:
 * scalar (width 1, always available), SSE4.2 (4), AVX2 (8), and NEON
 * (4, AArch64). One backend is selected at first use by a CPUID probe
 * — overridable with the RELIEF_KERNEL_ISA environment variable or the
 * `--kernel-isa` CLI flag for testing — and exposed as a table of row
 * function pointers (KernelOps) the Plane-level wrappers in
 * filters/vision/elemwise/rnn call.
 *
 * Bit-identity contract: every SIMD path produces *bit-identical*
 * output to the scalar backend (and to the pre-SIMD scalar loops).
 * The lanes only use IEEE-754 correctly-rounded single ops (add, sub,
 * mul, div, sqrt, min/max, compares, blends), each vector op maps 1:1
 * onto the scalar sequence in the same order (no FMA contraction, no
 * reassociation, no fast-math), and reductions are per-lane — each
 * lane owns one output pixel and accumulates serially in tap order.
 * Transcendentals (exp, tanh, atan2, pow) are *scalar by contract*:
 * they take one shared libm loop (elemScalarRow / gammaCorrect below)
 * compiled once, so every ISA agrees bit-for-bit. The golden suite in
 * tests/kernels/simd_test.cc enforces the contract on random images
 * and ragged widths that exercise the tail lanes.
 */

#ifndef RELIEF_KERNELS_SIMD_SIMD_HH
#define RELIEF_KERNELS_SIMD_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "acc/acc_types.hh"

namespace relief
{

/** Instruction sets a kernel backend can be built for. */
enum class KernelIsa : std::uint8_t
{
    Scalar, ///< Portable width-1 reference (always compiled in).
    Sse42,  ///< x86 SSE4.2, 4 float lanes.
    Avx2,   ///< x86 AVX2, 8 float lanes.
    Neon,   ///< AArch64 Advanced SIMD, 4 float lanes.
};

/** Printable name ("scalar", "sse4.2", "avx2", "neon"). */
const char *kernelIsaName(KernelIsa isa);

/** Resolve a name as printed by kernelIsaName(); throws FatalError
 *  (with the known names) on anything else. */
KernelIsa kernelIsaFromName(const std::string &name);

/** ISAs whose backend is compiled into this binary. Always contains
 *  Scalar; the x86/ARM entries depend on toolchain support. */
std::vector<KernelIsa> compiledKernelIsas();

/** True when @p isa is compiled in AND the running CPU supports it. */
bool kernelIsaSupported(KernelIsa isa);

/**
 * The ISA the kernel wrappers dispatch to. Resolved once at first
 * use: RELIEF_KERNEL_ISA (if set) wins, else the widest supported
 * backend (AVX2 > SSE4.2 > NEON > scalar). Thread-safe.
 */
KernelIsa activeKernelIsa();

/** Force the active ISA (tests, --kernel-isa). Panics unless
 *  kernelIsaSupported(@p isa). */
void setKernelIsa(KernelIsa isa);

/** Drop the resolved/forced choice so the next activeKernelIsa()
 *  re-reads RELIEF_KERNEL_ISA and re-probes the CPU (tests only). */
void resetKernelIsaForTesting();

/**
 * Row-primitive dispatch table of one backend. Rows are the unit of
 * work so whole-plane wrappers and the row-tiled pipeline
 * (kernels/pipeline.hh) share one implementation; vertical clamping
 * is the caller's job (it passes clamped row pointers), horizontal
 * clamping is internal.
 */
struct KernelOps
{
    KernelIsa isa = KernelIsa::Scalar;
    int laneWidth = 1; ///< Floats processed per vector op.

    /** 2-D convolution of one output row. @p rows holds the @p fsize
     *  input rows (vertically clamped); taps are row-major
     *  [fy * fsize + fx]. */
    void (*convRow)(const float *const *rows, int w, const float *taps,
                    int fsize, float *out);

    /** Canny NMS of one row: @p mag_rows = clamped rows y-1,y,y+1 of
     *  the gradient magnitude, @p dir_row = direction row y. */
    void (*cannyNmsRow)(const float *const *mag_rows,
                        const float *dir_row, int w, float *out);

    /** Harris NMS of one row: @p rows = clamped rows y-1,y,y+1 of the
     *  corner response. */
    void (*harrisNmsRow)(const float *const *rows, int w, float *out);

    /** ITU-R BT.601 luma from three channel buffers. */
    void (*bt601)(const float *r, const float *g, const float *b,
                  float *out, std::size_t n);

    /** 3x3 color-correction matrix + clamp to [0, 1], in place across
     *  the three channel buffers (gamma is applied separately by the
     *  shared scalar gammaCorrect()). */
    void (*ccmClamp)(float *r, float *g, float *b, std::size_t n,
                     const float ccm[3][3]);

    /** Vectorizable elementwise ops (see elemOpVectorized()); @p b is
     *  ignored for unary ops, @p scalar parameterizes Scale. */
    void (*elemRow)(ElemOp op, const float *a, const float *b,
                    float scalar, float *out, std::size_t n);

    /** Fused gradient magnitude: sqrt-guarded gx^2 + gy^2, matching
     *  the Sqr/Sqr/Add/Sqrt elemwise chain bit for bit. */
    void (*gradMag)(const float *gx, const float *gy, float *out,
                    std::size_t n);

    /** RNN gate pre-activation: w*x + u*h + b elementwise (the
     *  diagonal-GEMV of the paper's light recurrent cells). */
    void (*rnnGatePre)(const float *w, const float *x, const float *u,
                       const float *h, const float *b, float *out,
                       std::size_t n);
};

/** Dispatch table of the active ISA (resolves on first call). */
const KernelOps &kernelOps();

/** Dispatch table of a specific ISA; panics unless supported. */
const KernelOps &kernelOpsFor(KernelIsa isa);

/** True when @p op runs on the vector elemRow path; Atan2 / Tanh /
 *  Sigmoid are scalar by contract (libm bit-identity). */
bool elemOpVectorized(ElemOp op);

/**
 * The shared scalar elementwise loop every ISA uses for the
 * non-vectorizable ops. Also the reference semantics of elemRow:
 * both produce identical bits for the vectorizable ops.
 */
void elemScalarRow(ElemOp op, const float *a, const float *b,
                   float scalar, float *out, std::size_t n);

/** Shared scalar gamma pass: p[i] = pow(p[i], inv_gamma). */
void gammaCorrect(float *p, std::size_t n, float inv_gamma);

} // namespace relief

#endif // RELIEF_KERNELS_SIMD_SIMD_HH
