#include "kernels/rnn.hh"

#include "kernels/elemwise.hh"
#include "sim/hostprof.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

/** xorshift-based deterministic weight generator. */
Vec
randomVec(int n, std::uint32_t &rng)
{
    Vec v(std::size_t(n), 0.0f);
    for (auto &x : v) {
        rng ^= rng << 13;
        rng ^= rng >> 17;
        rng ^= rng << 5;
        x = float(rng % 10000) / 10000.0f - 0.5f;
    }
    return v;
}

/** act(w*x + u*h + b), the pre-activation fused into one pass
 *  (bit-identical to the Mul/Mul/Add/Add elemwise chain). */
Vec
gate(ElemOp activation, const Vec &w, const Vec &x, const Vec &u,
     const Vec &h, const Vec &b)
{
    RELIEF_ASSERT(w.size() == x.size() && u.size() == h.size() &&
                      w.size() == u.size() && w.size() == b.size(),
                  "RNN gate operand size mismatch");
    Vec pre(x.size());
    gatePreActivation(w.data(), x.data(), u.data(), h.data(), b.data(),
                      pre.data(), pre.size());
    return elemwise(activation, pre);
}

} // namespace

void
gatePreActivation(const float *w, const float *x, const float *u,
                  const float *h, const float *b, float *out,
                  std::size_t n)
{
    HostProfScope prof(HostCat::Kernels);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = (w[i] * x[i] + u[i] * h[i]) + b[i];
}

GruWeights
makeGruWeights(int hidden, std::uint32_t seed)
{
    std::uint32_t rng = seed ? seed : 1u;
    GruWeights w;
    w.wz = randomVec(hidden, rng);
    w.uz = randomVec(hidden, rng);
    w.bz = randomVec(hidden, rng);
    w.wr = randomVec(hidden, rng);
    w.ur = randomVec(hidden, rng);
    w.br = randomVec(hidden, rng);
    w.wc = randomVec(hidden, rng);
    w.uc = randomVec(hidden, rng);
    w.bc = randomVec(hidden, rng);
    return w;
}

LstmWeights
makeLstmWeights(int hidden, std::uint32_t seed)
{
    std::uint32_t rng = seed ? seed : 1u;
    LstmWeights w;
    w.wi = randomVec(hidden, rng);
    w.ui = randomVec(hidden, rng);
    w.bi = randomVec(hidden, rng);
    w.wf = randomVec(hidden, rng);
    w.uf = randomVec(hidden, rng);
    w.bf = randomVec(hidden, rng);
    w.wo = randomVec(hidden, rng);
    w.uo = randomVec(hidden, rng);
    w.bo = randomVec(hidden, rng);
    w.wc = randomVec(hidden, rng);
    w.uc = randomVec(hidden, rng);
    w.bc = randomVec(hidden, rng);
    return w;
}

Vec
gruStep(const Vec &x, const Vec &h, const GruWeights &w)
{
    RELIEF_ASSERT(x.size() == h.size(), "GRU input/state size mismatch");
    Vec z = gate(ElemOp::Sigmoid, w.wz, x, w.uz, h, w.bz);
    Vec r = gate(ElemOp::Sigmoid, w.wr, x, w.ur, h, w.br);
    Vec rh = elemwise(ElemOp::Mul, r, &h);
    Vec c = gate(ElemOp::Tanh, w.wc, x, w.uc, rh, w.bc);
    Vec zc = elemwise(ElemOp::Mul, z, &c);
    Vec one_minus_z = elemwise(ElemOp::OneMinus, z);
    Vec keep = elemwise(ElemOp::Mul, one_minus_z, &h);
    return elemwise(ElemOp::Add, keep, &zc);
}

LstmState
lstmStep(const Vec &x, const LstmState &state, const LstmWeights &w)
{
    RELIEF_ASSERT(x.size() == state.h.size(),
                  "LSTM input/state size mismatch");
    Vec i = gate(ElemOp::Sigmoid, w.wi, x, w.ui, state.h, w.bi);
    Vec f = gate(ElemOp::Sigmoid, w.wf, x, w.uf, state.h, w.bf);
    Vec o = gate(ElemOp::Sigmoid, w.wo, x, w.uo, state.h, w.bo);
    Vec g = gate(ElemOp::Tanh, w.wc, x, w.uc, state.h, w.bc);
    Vec fc = elemwise(ElemOp::Mul, f, &state.c);
    Vec ig = elemwise(ElemOp::Mul, i, &g);
    LstmState next;
    next.c = elemwise(ElemOp::Add, fc, &ig);
    Vec tanh_c = elemwise(ElemOp::Tanh, next.c);
    next.h = elemwise(ElemOp::Mul, o, &tanh_c);
    return next;
}

Vec
gruSequence(const std::vector<Vec> &inputs, const GruWeights &w)
{
    RELIEF_ASSERT(!inputs.empty(), "GRU sequence is empty");
    Vec h(inputs.front().size(), 0.0f);
    for (const auto &x : inputs)
        h = gruStep(x, h, w);
    return h;
}

LstmState
lstmSequence(const std::vector<Vec> &inputs, const LstmWeights &w)
{
    RELIEF_ASSERT(!inputs.empty(), "LSTM sequence is empty");
    LstmState state;
    state.h.assign(inputs.front().size(), 0.0f);
    state.c.assign(inputs.front().size(), 0.0f);
    for (const auto &x : inputs)
        state = lstmStep(x, state, w);
    return state;
}

} // namespace relief
