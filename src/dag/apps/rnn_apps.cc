/**
 * @file
 * GRU and LSTM DAG builders (Fig. 1 e-f).
 *
 * Every node is an elem-matrix task (the paper: GRU and LSTM map
 * exclusively onto elem-matrix), 14 nodes per GRU step and 17 per LSTM
 * step for 112/136 tasks at sequence length 8 — matching Table II's
 * task-count arithmetic (GRU: 1249.31 us / 10.94 us ~ 114 tasks).
 *
 * Gates use the elementwise (diagonal-weight) formulation; the
 * input-side pre-activations (w_g * x_t + b_g) are precomputed host
 * data fetched from DRAM, so each gate is the 3-task chain
 * mul(u_g, h) -> add(.., x_g) -> activation. The longest per-step
 * chain (through the candidate state) is 9 nodes, matching the paper's
 * "long, linear chains (up to 9 nodes)" observation.
 *
 * Task granularity: the per-task times in Tables I/II imply RNN
 * elem-matrix tasks process 16384 elements (batch-128 inference over a
 * 128-wide hidden state); functional payloads operate on that size and
 * compose to exactly gruSequence()/lstmSequence() from src/kernels/rnn.
 */

#include <memory>
#include <string>

#include "dag/apps/apps.hh"
#include "dag/apps/builder_util.hh"
#include "kernels/elemwise.hh"
#include "kernels/rnn.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

using Inputs = std::vector<const std::vector<float> *>;

constexpr std::uint32_t rnnElems = 16384; // 128 batch x 128 hidden.

/** Deterministic input sequence for functional mode. */
std::vector<Vec>
makeInputs(int seq_len, std::uint32_t seed)
{
    std::uint32_t rng = seed ? seed : 1u;
    std::vector<Vec> xs;
    for (int t = 0; t < seq_len; ++t) {
        Vec x(rnnElems);
        for (auto &v : x) {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            v = float(rng % 10000) / 10000.0f - 0.5f;
        }
        xs.push_back(std::move(x));
    }
    return xs;
}

/** A recurrent weight vector, shared by every step that reads it. */
using SharedVec = std::shared_ptr<const Vec>;

/** Member @p vec of the weights @p w, sharing their ownership (null
 *  when @p w is: timing-only builds have no weights). */
template <typename Weights>
SharedVec
share(const std::shared_ptr<const Weights> &w, Vec Weights::*vec)
{
    return w ? SharedVec(w, &((*w).*vec)) : nullptr;
}

/** mul(u, parent) with the shared weight vector captured. */
NodeFn
mulWeightFn(SharedVec u)
{
    return [u = std::move(u)](const Inputs &in) {
        RELIEF_ASSERT(in.size() == 1, "recurrent mul needs 1 input");
        return elemwise(ElemOp::Mul, *u, in[0]);
    };
}

/** mul(u, zero-state) for the first step (no hidden-state parent). */
NodeFn
mulWeightZeroFn()
{
    return [](const Inputs &) { return Vec(rnnElems, 0.0f); };
}

/** add(parent, captured pre-activation x_g = w*x + b). */
NodeFn
addPreactFn(Vec xg)
{
    return [xg = std::move(xg)](const Inputs &in) {
        RELIEF_ASSERT(in.size() == 1, "pre-activation add needs 1 input");
        return elemwise(ElemOp::Add, *in[0], &xg);
    };
}

NodeFn
unaryFn(ElemOp op)
{
    return [op](const Inputs &in) {
        RELIEF_ASSERT(in.size() == 1, "unary elem node needs 1 input");
        return elemwise(op, *in[0]);
    };
}

NodeFn
binaryFn(ElemOp op)
{
    return [op](const Inputs &in) {
        RELIEF_ASSERT(in.size() == 2, "binary elem node needs 2 inputs");
        return elemwise(op, *in[0], in[1]);
    };
}

/** Pre-activation vector w*x + b for functional mode, summed in place. */
Vec
preact(const Vec &w, const Vec &x, const Vec &b)
{
    Vec out = elemwise(ElemOp::Mul, w, &x);
    elemwiseBuf(ElemOp::Add, out.data(), b.data(), 0.0f, out.data(),
                out.size());
    return out;
}

/**
 * Gate subgraph: mul(u, h) -> add(x_g) -> activation. Returns the
 * activation node. @p h may be null (first step: zero state).
 */
Node *
addGate(Dag &dag, const std::string &prefix, Node *h, ElemOp activation,
        bool functional, const SharedVec &u, Vec xg)
{
    Node *m = dag.addNode(emTask(ElemOp::Mul, 2, rnnElems),
                          prefix + ".mul");
    Node *a = dag.addNode(emTask(ElemOp::Add, 2, rnnElems),
                          prefix + ".add");
    Node *act = dag.addNode(emTask(activation, 1, rnnElems),
                            prefix + "." + elemOpName(activation));
    if (h)
        dag.addEdge(h, m);
    dag.addEdge(m, a);
    dag.addEdge(a, act);
    if (functional) {
        m->fn = h ? mulWeightFn(u) : mulWeightZeroFn();
        a->fn = addPreactFn(std::move(xg));
        act->fn = unaryFn(activation);
    }
    return act;
}

} // namespace

std::vector<float>
gruReferenceOutput(const AppConfig &config)
{
    GruWeights w = makeGruWeights(int(rnnElems), config.seed + 17);
    return gruSequence(makeInputs(config.seqLen, config.seed), w);
}

std::vector<float>
lstmReferenceOutput(const AppConfig &config)
{
    LstmWeights w = makeLstmWeights(int(rnnElems), config.seed + 23);
    return lstmSequence(makeInputs(config.seqLen, config.seed), w).h;
}

DagPtr
buildGru(const AppConfig &config)
{
    auto dag = std::make_shared<Dag>("gru", 'G');
    const bool fun = config.functional;
    std::shared_ptr<const GruWeights> w;
    std::vector<Vec> xs;
    if (fun) {
        w = std::make_shared<const GruWeights>(
            makeGruWeights(int(rnnElems), config.seed + 17));
        xs = makeInputs(config.seqLen, config.seed);
    }

    Node *h = nullptr; // Hidden state entering the step (null = zeros).
    for (int t = 0; t < config.seqLen; ++t) {
        std::string p = "gru.t" + std::to_string(t);
        Vec xz, xr;
        if (fun) {
            xz = preact(w->wz, xs[std::size_t(t)], w->bz);
            xr = preact(w->wr, xs[std::size_t(t)], w->br);
        }
        Node *z = addGate(*dag, p + ".z", h, ElemOp::Sigmoid, fun,
                          share(w, &GruWeights::uz), std::move(xz));
        Node *r = addGate(*dag, p + ".r", h, ElemOp::Sigmoid, fun,
                          share(w, &GruWeights::ur), std::move(xr));

        // Candidate: c = tanh(uc * (r*h) + xc).
        Node *rh = dag->addNode(emTask(ElemOp::Mul, 2, rnnElems),
                                p + ".rh");
        dag->addEdge(r, rh);
        if (h)
            dag->addEdge(h, rh);
        Node *ucrh = dag->addNode(emTask(ElemOp::Mul, 2, rnnElems),
                                  p + ".ucrh");
        dag->addEdge(rh, ucrh);
        Node *cpre = dag->addNode(emTask(ElemOp::Add, 2, rnnElems),
                                  p + ".cpre");
        dag->addEdge(ucrh, cpre);
        Node *c = dag->addNode(emTask(ElemOp::Tanh, 1, rnnElems),
                               p + ".c");
        dag->addEdge(cpre, c);

        // Blend: h' = (1-z)*h + z*c.
        Node *omz = dag->addNode(emTask(ElemOp::OneMinus, 1, rnnElems),
                                 p + ".omz");
        dag->addEdge(z, omz);
        Node *keep = dag->addNode(emTask(ElemOp::Mul, 2, rnnElems),
                                  p + ".keep");
        dag->addEdge(omz, keep);
        if (h)
            dag->addEdge(h, keep);
        Node *zc = dag->addNode(emTask(ElemOp::Mul, 2, rnnElems),
                                p + ".zc");
        dag->addEdge(z, zc);
        dag->addEdge(c, zc);
        Node *hn = dag->addNode(emTask(ElemOp::Add, 2, rnnElems),
                                p + ".h");
        dag->addEdge(keep, hn);
        dag->addEdge(zc, hn);

        if (fun) {
            if (h) {
                rh->fn = binaryFn(ElemOp::Mul); // inputs: r, h
                keep->fn = binaryFn(ElemOp::Mul);
            } else {
                rh->fn = mulWeightZeroFn();
                // (1-z) * 0 = 0.
                keep->fn = mulWeightZeroFn();
            }
            ucrh->fn = mulWeightFn(share(w, &GruWeights::uc));
            Vec xc2 = preact(w->wc, xs[std::size_t(t)], w->bc);
            cpre->fn = addPreactFn(std::move(xc2));
            c->fn = unaryFn(ElemOp::Tanh);
            omz->fn = unaryFn(ElemOp::OneMinus);
            zc->fn = binaryFn(ElemOp::Mul);
            hn->fn = binaryFn(ElemOp::Add);
        }
        h = hn;
    }
    return dag;
}

DagPtr
buildLstm(const AppConfig &config)
{
    auto dag = std::make_shared<Dag>("lstm", 'L');
    const bool fun = config.functional;
    std::shared_ptr<const LstmWeights> w;
    std::vector<Vec> xs;
    if (fun) {
        w = std::make_shared<const LstmWeights>(
            makeLstmWeights(int(rnnElems), config.seed + 23));
        xs = makeInputs(config.seqLen, config.seed);
    }

    Node *h = nullptr;
    Node *c_state = nullptr;
    for (int t = 0; t < config.seqLen; ++t) {
        std::string p = "lstm.t" + std::to_string(t);
        Vec xi, xf, xo, xg;
        if (fun) {
            xi = preact(w->wi, xs[std::size_t(t)], w->bi);
            xf = preact(w->wf, xs[std::size_t(t)], w->bf);
            xo = preact(w->wo, xs[std::size_t(t)], w->bo);
            xg = preact(w->wc, xs[std::size_t(t)], w->bc);
        }
        Node *i = addGate(*dag, p + ".i", h, ElemOp::Sigmoid, fun,
                          share(w, &LstmWeights::ui), std::move(xi));
        Node *f = addGate(*dag, p + ".f", h, ElemOp::Sigmoid, fun,
                          share(w, &LstmWeights::uf), std::move(xf));
        Node *o = addGate(*dag, p + ".o", h, ElemOp::Sigmoid, fun,
                          share(w, &LstmWeights::uo), std::move(xo));
        Node *g = addGate(*dag, p + ".g", h, ElemOp::Tanh, fun,
                          share(w, &LstmWeights::uc), std::move(xg));

        // c' = f*c + i*g.
        Node *fc = dag->addNode(emTask(ElemOp::Mul, 2, rnnElems),
                                p + ".fc");
        dag->addEdge(f, fc);
        if (c_state)
            dag->addEdge(c_state, fc);
        Node *ig = dag->addNode(emTask(ElemOp::Mul, 2, rnnElems),
                                p + ".ig");
        dag->addEdge(i, ig);
        dag->addEdge(g, ig);
        Node *cn = dag->addNode(emTask(ElemOp::Add, 2, rnnElems),
                                p + ".c");
        dag->addEdge(fc, cn);
        dag->addEdge(ig, cn);

        // h' = o * tanh(c').
        Node *ct = dag->addNode(emTask(ElemOp::Tanh, 1, rnnElems),
                                p + ".ct");
        dag->addEdge(cn, ct);
        Node *hn = dag->addNode(emTask(ElemOp::Mul, 2, rnnElems),
                                p + ".h");
        dag->addEdge(o, hn);
        dag->addEdge(ct, hn);

        if (fun) {
            fc->fn = c_state ? binaryFn(ElemOp::Mul) : mulWeightZeroFn();
            ig->fn = binaryFn(ElemOp::Mul);
            cn->fn = binaryFn(ElemOp::Add);
            ct->fn = unaryFn(ElemOp::Tanh);
            hn->fn = binaryFn(ElemOp::Mul);
        }
        h = hn;
        c_state = cn;
    }
    return dag;
}

} // namespace relief
