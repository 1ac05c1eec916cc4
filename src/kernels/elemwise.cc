#include "kernels/elemwise.hh"

#include <cmath>

#include "sim/hostprof.hh"
#include "sim/logging.hh"

namespace relief
{

bool
elemOpIsBinary(ElemOp op)
{
    switch (op) {
      case ElemOp::Add:
      case ElemOp::Sub:
      case ElemOp::Mul:
      case ElemOp::Div:
      case ElemOp::Atan2:
        return true;
      default:
        return false;
    }
}

void
elemwiseBuf(ElemOp op, const float *a, const float *b, float scalar,
            float *out, std::size_t n)
{
    HostProfScope prof(HostCat::Kernels);
    // One loop per op, so each loop body is branch-free on the op.
    switch (op) {
      case ElemOp::Add:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] + b[i];
        return;
      case ElemOp::Sub:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] - b[i];
        return;
      case ElemOp::Mul:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * b[i];
        return;
      case ElemOp::Div:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = std::abs(b[i]) > 1e-12f ? a[i] / b[i] : 0.0f;
        return;
      case ElemOp::Sqr:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * a[i];
        return;
      case ElemOp::Sqrt:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] > 0.0f ? std::sqrt(a[i]) : 0.0f;
        return;
      case ElemOp::Atan2:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = std::atan2(a[i], b[i]);
        return;
      case ElemOp::Tanh:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = std::tanh(a[i]);
        return;
      case ElemOp::Sigmoid:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 1.0f / (1.0f + std::exp(-a[i]));
        return;
      case ElemOp::Scale:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * scalar;
        return;
      case ElemOp::OneMinus:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 1.0f - a[i];
        return;
    }
}

std::vector<float>
elemwise(ElemOp op, const std::vector<float> &a,
         const std::vector<float> *b, float scalar)
{
    if (elemOpIsBinary(op)) {
        RELIEF_ASSERT(b != nullptr, "binary elem op ", elemOpName(op),
                      " needs two operands");
        RELIEF_ASSERT(a.size() == b->size(),
                      "elem op operand size mismatch: ", a.size(), " vs ",
                      b->size());
    }

    std::vector<float> out(a.size());
    elemwiseBuf(op, a.data(), b != nullptr ? b->data() : nullptr, scalar,
                out.data(), a.size());
    return out;
}

Plane
elemwise(ElemOp op, const Plane &a, const Plane *b, float scalar)
{
    Plane out(a.width(), a.height());
    elemwiseInto(op, a, b, scalar, out);
    return out;
}

void
elemwiseInto(ElemOp op, const Plane &a, const Plane *b, float scalar,
             Plane &out)
{
    if (b != nullptr) {
        RELIEF_ASSERT(a.sameShape(*b), "elem op plane shape mismatch");
    }
    RELIEF_ASSERT(a.sameShape(out), "elem op output shape mismatch");
    if (elemOpIsBinary(op)) {
        RELIEF_ASSERT(b != nullptr, "binary elem op ", elemOpName(op),
                      " needs two operands");
    }
    elemwiseBuf(op, a.data().data(),
                b != nullptr ? b->data().data() : nullptr, scalar,
                out.data().data(), a.size());
}

} // namespace relief
