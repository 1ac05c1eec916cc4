/**
 * @file
 * Elementwise operations — the `elem-matrix` accelerator's function.
 * Works on Plane images and raw float vectors (the RNN cells use the
 * vector form on hidden-size-128 state).
 */

#ifndef RELIEF_KERNELS_ELEMWISE_HH
#define RELIEF_KERNELS_ELEMWISE_HH

#include <vector>

#include "acc/acc_types.hh"
#include "kernels/image.hh"

namespace relief
{

/** True if @p op consumes two operands (Add/Sub/Mul/Div/Atan2). */
bool elemOpIsBinary(ElemOp op);

/**
 * Apply @p op elementwise. @p b must be non-null for binary ops and is
 * ignored for unary ops; @p scalar parameterizes Scale.
 */
std::vector<float> elemwise(ElemOp op, const std::vector<float> &a,
                            const std::vector<float> *b = nullptr,
                            float scalar = 1.0f);

/** Plane overload of elemwise(). */
Plane elemwise(ElemOp op, const Plane &a, const Plane *b = nullptr,
               float scalar = 1.0f);

/**
 * Raw-buffer elemwise into caller storage (the DAG builders use this
 * to avoid copies). @p out may alias @p a or @p b.
 */
void elemwiseBuf(ElemOp op, const float *a, const float *b, float scalar,
                 float *out, std::size_t n);

/** elemwise() into an existing same-shape Plane (pooled scratch). */
void elemwiseInto(ElemOp op, const Plane &a, const Plane *b, float scalar,
                  Plane &out);

} // namespace relief

#endif // RELIEF_KERNELS_ELEMWISE_HH
