/**
 * @file
 * GRU and LSTM cells built purely from elementwise operations.
 *
 * The paper's RNN applications map *exclusively* onto the elem-matrix
 * accelerator, i.e. the gates are computed with elementwise (diagonal
 * weight) products rather than dense matrix multiplies — the "light"
 * recurrent-unit formulation of its reference [41] (Ravanelli et al.).
 * Each gate g computes: act(w_g * x + u_g * h + b_g), all elementwise
 * over the 128-element hidden state, which is exactly the chain of
 * elem-matrix tasks the GRU/LSTM DAGs in Fig. 1(e,f) describe.
 */

#ifndef RELIEF_KERNELS_RNN_HH
#define RELIEF_KERNELS_RNN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace relief
{

using Vec = std::vector<float>;

/** Elementwise (diagonal) GRU weights for one layer. */
struct GruWeights
{
    Vec wz, uz, bz; ///< Update gate.
    Vec wr, ur, br; ///< Reset gate.
    Vec wc, uc, bc; ///< Candidate state.
};

/** Elementwise (diagonal) LSTM weights for one layer. */
struct LstmWeights
{
    Vec wi, ui, bi; ///< Input gate.
    Vec wf, uf, bf; ///< Forget gate.
    Vec wo, uo, bo; ///< Output gate.
    Vec wc, uc, bc; ///< Cell candidate.
};

/** LSTM recurrent state. */
struct LstmState
{
    Vec h; ///< Hidden state.
    Vec c; ///< Cell state.
};

/** Deterministic small weights in (-0.5, 0.5) for tests/examples. */
GruWeights makeGruWeights(int hidden, std::uint32_t seed);
LstmWeights makeLstmWeights(int hidden, std::uint32_t seed);

/** Gate pre-activation out = (w*x + u*h) + b over @p n elements: the
 *  diagonal GEMV of the paper's light recurrent cells. */
void gatePreActivation(const float *w, const float *x, const float *u,
                       const float *h, const float *b, float *out,
                       std::size_t n);

/**
 * One GRU step: returns the next hidden state.
 *
 * z = sigmoid(wz*x + uz*h + bz); r = sigmoid(wr*x + ur*h + br);
 * c = tanh(wc*x + uc*(r*h) + bc); h' = (1-z)*h + z*c.
 */
Vec gruStep(const Vec &x, const Vec &h, const GruWeights &w);

/** One LSTM step: returns the next (hidden, cell) state. */
LstmState lstmStep(const Vec &x, const LstmState &state,
                   const LstmWeights &w);

/** Run a GRU over @p inputs, returning the final hidden state. */
Vec gruSequence(const std::vector<Vec> &inputs, const GruWeights &w);

/** Run an LSTM over @p inputs, returning the final state. */
LstmState lstmSequence(const std::vector<Vec> &inputs,
                       const LstmWeights &w);

} // namespace relief

#endif // RELIEF_KERNELS_RNN_HH
