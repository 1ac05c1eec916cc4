/**
 * @file
 * Shared functional-payload closures for the vision DAG builders:
 * elementwise stages, convolution stages, and the ISP/grayscale pair
 * with its packed [R|G|B] intermediate layout.
 */

#ifndef RELIEF_DAG_APPS_FUNCTIONAL_UTIL_HH
#define RELIEF_DAG_APPS_FUNCTIONAL_UTIL_HH

#include <utility>
#include <vector>

#include "dag/apps/builder_util.hh"
#include "dag/node.hh"
#include "kernels/elemwise.hh"
#include "kernels/filters.hh"
#include "kernels/vision.hh"
#include "sim/logging.hh"

namespace relief::appfn
{

using Inputs = NodeInputs;

/** Closure running a unary/binary elementwise op on flat buffers. */
inline NodeFn
emFn(ElemOp op, float scalar = 1.0f)
{
    return [op, scalar](const Inputs &in, std::vector<float> &out) {
        RELIEF_ASSERT(!in.empty(), "elem node with no inputs");
        const float *b = nullptr;
        if (elemOpIsBinary(op)) {
            RELIEF_ASSERT(in.size() == 2,
                          "binary elem node needs 2 inputs");
            RELIEF_ASSERT(in[0]->size() == in[1]->size(),
                          "elem op operand size mismatch: ",
                          in[0]->size(), " vs ", in[1]->size());
            b = in[1]->data();
        }
        out.resize(in[0]->size());
        elemwiseBuf(op, in[0]->data(), b, scalar, out.data(), out.size());
    };
}

/** Closure convolving a single plane input with a captured filter. */
inline NodeFn
convFn(Filter2D filter, int w, int h)
{
    return [filter, w, h](const Inputs &in, std::vector<float> &out) {
        RELIEF_ASSERT(in.size() == 1, "conv node needs 1 input");
        RELIEF_ASSERT(in[0]->size() == std::size_t(w) * std::size_t(h),
                      "conv node input size mismatch");
        out.resize(in[0]->size());
        convolveBuf(in[0]->data(), w, h, filter, out.data());
    };
}

/** ISP stage producing packed [R|G|B] planes from a captured raw
 *  sensor image. */
inline NodeFn
ispFn(BayerImage raw)
{
    return [raw = std::move(raw)](const Inputs &, std::vector<float> &out) {
        const std::size_t n =
            std::size_t(raw.width) * std::size_t(raw.height);
        out.resize(3 * n);
        ispBuf(raw, out.data(), out.data() + n, out.data() + 2 * n);
    };
}

/** Grayscale stage consuming the packed [R|G|B] layout. */
inline NodeFn
grayFn(int w, int h)
{
    return [w, h](const Inputs &in, std::vector<float> &out) {
        RELIEF_ASSERT(in.size() == 1, "grayscale node needs 1 input");
        const auto &packed = *in[0];
        std::size_t n = std::size_t(w) * std::size_t(h);
        RELIEF_ASSERT(packed.size() == 3 * n, "bad packed RGB size");
        // The packed [R|R|...|G|...|B] layout is already three channel
        // buffers — feed them to the luma kernel without repacking.
        out.resize(n);
        grayscaleBuf(packed.data(), packed.data() + n,
                     packed.data() + 2 * n, out.data(), n);
    };
}

} // namespace relief::appfn

#endif // RELIEF_DAG_APPS_FUNCTIONAL_UTIL_HH
