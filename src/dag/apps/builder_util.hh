/**
 * @file
 * Shared helpers for the application DAG builders: TaskParams
 * factories.
 */

#ifndef RELIEF_DAG_APPS_BUILDER_UTIL_HH
#define RELIEF_DAG_APPS_BUILDER_UTIL_HH

#include <cstdint>

#include "acc/compute_model.hh"

namespace relief
{

/** TaskParams for an elem-matrix task. */
inline TaskParams
emTask(ElemOp op, int num_inputs, std::uint32_t elems)
{
    TaskParams p;
    p.type = AccType::ElemMatrix;
    p.op = op;
    p.numInputs = num_inputs;
    p.elems = elems;
    return p;
}

/** TaskParams for a convolution task with @p filter_size taps. */
inline TaskParams
convTask(int filter_size, std::uint32_t elems)
{
    TaskParams p;
    p.type = AccType::Convolution;
    p.filterSize = filter_size;
    p.numInputs = 1;
    p.elems = elems;
    return p;
}

/** TaskParams for a single-input fixed-function task of @p type. */
inline TaskParams
simpleTask(AccType type, std::uint32_t elems, int num_inputs = 1)
{
    TaskParams p;
    p.type = type;
    p.numInputs = num_inputs;
    p.elems = elems;
    return p;
}

} // namespace relief

#endif // RELIEF_DAG_APPS_BUILDER_UTIL_HH
