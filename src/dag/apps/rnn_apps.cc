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
 * input-side pre-activation x_g = w_g * x_t + b_g is an operand the
 * timing model fetches from DRAM, so each gate is the 3-task chain
 * mul(u_g, h) -> add(.., x_g) -> activation. Functional payloads do not
 * precompute x_g at build time: the add node's payload computes it
 * from the shared w_g, x_t and b_g into its own output buffer (mul,
 * then add b_g, then add the parent: the same roundings in the same
 * order as a stored x_g), so building a DAG allocates no per-gate
 * buffers and a run recycles every one it uses. The longest per-step
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
#include "dag/apps/functional_util.hh"
#include "kernels/elemwise.hh"
#include "kernels/rnn.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

using appfn::Inputs;
using appfn::emFn;

constexpr std::uint32_t rnnElems = 16384; // 128 batch x 128 hidden.

/** A recurrent weight vector, shared by every step that reads it. */
using SharedVec = std::shared_ptr<const Vec>;

/** Deterministic input sequence for functional mode. */
std::shared_ptr<const std::vector<Vec>>
makeInputs(int seq_len, std::uint32_t seed)
{
    std::uint32_t rng = seed ? seed : 1u;
    auto xs = std::make_shared<std::vector<Vec>>();
    for (int t = 0; t < seq_len; ++t) {
        Vec x(rnnElems);
        for (auto &v : x) {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            v = float(rng % 10000) / 10000.0f - 0.5f;
        }
        xs->push_back(std::move(x));
    }
    return xs;
}

/** Step @p t of the input sequence @p xs, sharing its ownership (null
 *  when @p xs is: timing-only builds have no inputs). */
SharedVec
stepInput(const std::shared_ptr<const std::vector<Vec>> &xs, int t)
{
    return xs ? SharedVec(xs, &(*xs)[std::size_t(t)]) : nullptr;
}

/** Member @p vec of the weights @p w, sharing their ownership (null
 *  when @p w is: timing-only builds have no weights). */
template <typename Weights>
SharedVec
share(const std::shared_ptr<const Weights> &w, Vec Weights::*vec)
{
    return w ? SharedVec(w, &((*w).*vec)) : nullptr;
}

/** The operands of a gate's input-side pre-activation w * x + b. */
struct Preact
{
    SharedVec w, x, b;
};

/** Preact of weights @p wg and bias @p bg from @p w over input @p x. */
template <typename Weights>
Preact
preact(const std::shared_ptr<const Weights> &w, Vec Weights::*wg,
       const SharedVec &x, Vec Weights::*bg)
{
    return Preact{share(w, wg), x, share(w, bg)};
}

/** mul(u, parent) with the shared weight vector captured. */
NodeFn
mulWeightFn(SharedVec u)
{
    return [u = std::move(u)](const Inputs &in, Vec &out) {
        RELIEF_ASSERT(in.size() == 1, "recurrent mul needs 1 input");
        RELIEF_ASSERT(in[0]->size() == u->size(),
                      "recurrent mul operand size mismatch");
        out.resize(u->size());
        elemwiseBuf(ElemOp::Mul, u->data(), in[0]->data(), 1.0f,
                    out.data(), out.size());
    };
}

/** mul(u, zero-state) for the first step (no hidden-state parent). */
NodeFn
mulWeightZeroFn()
{
    return [](const Inputs &, Vec &out) { out.assign(rnnElems, 0.0f); };
}

/** add(parent, x_g), computing x_g = w * x + b into the output first. */
NodeFn
addPreactFn(Preact pre)
{
    return [pre = std::move(pre)](const Inputs &in, Vec &out) {
        RELIEF_ASSERT(in.size() == 1, "pre-activation add needs 1 input");
        const std::size_t n = in[0]->size();
        RELIEF_ASSERT(pre.w->size() == n && pre.x->size() == n &&
                          pre.b->size() == n,
                      "pre-activation operand size mismatch");
        out.resize(n);
        float *xg = out.data();
        elemwiseBuf(ElemOp::Mul, pre.w->data(), pre.x->data(), 1.0f, xg,
                    n);
        elemwiseBuf(ElemOp::Add, xg, pre.b->data(), 1.0f, xg, n);
        elemwiseBuf(ElemOp::Add, in[0]->data(), xg, 1.0f, xg, n);
    };
}

/**
 * Gate subgraph: mul(u, h) -> add(x_g) -> activation. Returns the
 * activation node. @p h may be null (first step: zero state).
 */
Node *
addGate(Dag &dag, const std::string &prefix, Node *h, ElemOp activation,
        bool functional, const SharedVec &u, Preact pre)
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
        a->fn = addPreactFn(std::move(pre));
        act->fn = emFn(activation);
    }
    return act;
}

} // namespace

std::vector<float>
gruReferenceOutput(const AppConfig &config)
{
    GruWeights w = makeGruWeights(int(rnnElems), config.seed + 17);
    return gruSequence(*makeInputs(config.seqLen, config.seed), w);
}

std::vector<float>
lstmReferenceOutput(const AppConfig &config)
{
    LstmWeights w = makeLstmWeights(int(rnnElems), config.seed + 23);
    return lstmSequence(*makeInputs(config.seqLen, config.seed), w).h;
}

DagPtr
buildGru(const AppConfig &config)
{
    auto dag = std::make_shared<Dag>("gru", 'G');
    const bool fun = config.functional;
    std::shared_ptr<const GruWeights> w;
    std::shared_ptr<const std::vector<Vec>> xs;
    if (fun) {
        w = std::make_shared<const GruWeights>(
            makeGruWeights(int(rnnElems), config.seed + 17));
        xs = makeInputs(config.seqLen, config.seed);
    }

    Node *h = nullptr; // Hidden state entering the step (null = zeros).
    for (int t = 0; t < config.seqLen; ++t) {
        std::string p = "gru.t" + std::to_string(t);
        SharedVec x = stepInput(xs, t);
        Node *z = addGate(*dag, p + ".z", h, ElemOp::Sigmoid, fun,
                          share(w, &GruWeights::uz),
                          preact(w, &GruWeights::wz, x, &GruWeights::bz));
        Node *r = addGate(*dag, p + ".r", h, ElemOp::Sigmoid, fun,
                          share(w, &GruWeights::ur),
                          preact(w, &GruWeights::wr, x, &GruWeights::br));

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
                rh->fn = emFn(ElemOp::Mul); // inputs: r, h
                keep->fn = emFn(ElemOp::Mul);
            } else {
                rh->fn = mulWeightZeroFn();
                // (1-z) * 0 = 0.
                keep->fn = mulWeightZeroFn();
            }
            ucrh->fn = mulWeightFn(share(w, &GruWeights::uc));
            cpre->fn =
                addPreactFn(preact(w, &GruWeights::wc, x, &GruWeights::bc));
            c->fn = emFn(ElemOp::Tanh);
            omz->fn = emFn(ElemOp::OneMinus);
            zc->fn = emFn(ElemOp::Mul);
            hn->fn = emFn(ElemOp::Add);
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
    std::shared_ptr<const std::vector<Vec>> xs;
    if (fun) {
        w = std::make_shared<const LstmWeights>(
            makeLstmWeights(int(rnnElems), config.seed + 23));
        xs = makeInputs(config.seqLen, config.seed);
    }

    Node *h = nullptr;
    Node *c_state = nullptr;
    for (int t = 0; t < config.seqLen; ++t) {
        std::string p = "lstm.t" + std::to_string(t);
        SharedVec x = stepInput(xs, t);
        Node *i = addGate(*dag, p + ".i", h, ElemOp::Sigmoid, fun,
                          share(w, &LstmWeights::ui),
                          preact(w, &LstmWeights::wi, x, &LstmWeights::bi));
        Node *f = addGate(*dag, p + ".f", h, ElemOp::Sigmoid, fun,
                          share(w, &LstmWeights::uf),
                          preact(w, &LstmWeights::wf, x, &LstmWeights::bf));
        Node *o = addGate(*dag, p + ".o", h, ElemOp::Sigmoid, fun,
                          share(w, &LstmWeights::uo),
                          preact(w, &LstmWeights::wo, x, &LstmWeights::bo));
        Node *g = addGate(*dag, p + ".g", h, ElemOp::Tanh, fun,
                          share(w, &LstmWeights::uc),
                          preact(w, &LstmWeights::wc, x, &LstmWeights::bc));

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
            fc->fn = c_state ? emFn(ElemOp::Mul) : mulWeightZeroFn();
            ig->fn = emFn(ElemOp::Mul);
            cn->fn = emFn(ElemOp::Add);
            ct->fn = emFn(ElemOp::Tanh);
            hn->fn = emFn(ElemOp::Mul);
        }
        h = hn;
        c_state = cn;
    }
    return dag;
}

} // namespace relief
