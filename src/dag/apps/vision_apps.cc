/**
 * @file
 * Canny, Richardson-Lucy deblur, and Harris DAG builders (Fig. 1 b-d).
 *
 * Functional mode attaches per-node closures whose composition equals
 * the whole-plane reference chains in src/kernels/vision.* — the leaf
 * node's output is bit-identical to cannyReference()/harrisReference()/
 * richardsonLucy() on the same synthetic scene.
 */

#include <memory>
#include <utility>

#include "dag/apps/apps.hh"
#include "dag/apps/builder_util.hh"
#include "dag/apps/functional_util.hh"
#include "kernels/elemwise.hh"
#include "kernels/filters.hh"
#include "kernels/vision.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

using appfn::Inputs;
using appfn::convFn;
using appfn::emFn;
using appfn::grayFn;
using appfn::ispFn;

} // namespace

DagPtr
buildCanny(const AppConfig &config)
{
    const int w = config.width, h = config.height;
    const std::uint32_t elems = std::uint32_t(w) * std::uint32_t(h);
    auto dag = std::make_shared<Dag>("canny", 'C');

    Node *n_isp = dag->addNode(simpleTask(AccType::ISP, elems),
                               "canny.isp");
    Node *n_gray = dag->addNode(simpleTask(AccType::Grayscale, elems),
                                "canny.gray");
    Node *n_blur = dag->addNode(convTask(5, elems), "canny.gauss5");
    Node *n_gx = dag->addNode(convTask(3, elems), "canny.sobel_x");
    Node *n_gy = dag->addNode(convTask(3, elems), "canny.sobel_y");
    Node *n_gx2 = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                               "canny.gx2");
    Node *n_gy2 = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                               "canny.gy2");
    Node *n_sum = dag->addNode(emTask(ElemOp::Add, 2, elems),
                               "canny.mag_sum");
    Node *n_mag = dag->addNode(emTask(ElemOp::Sqrt, 1, elems),
                               "canny.mag");
    Node *n_dir = dag->addNode(emTask(ElemOp::Atan2, 2, elems),
                               "canny.dir");
    Node *n_nms = dag->addNode(
        simpleTask(AccType::CannyNonMax, elems, 2), "canny.nms");
    Node *n_et = dag->addNode(simpleTask(AccType::EdgeTracking, elems),
                              "canny.edge_track");
    Node *n_boost = dag->addNode(emTask(ElemOp::Scale, 1, elems),
                                 "canny.boost");

    dag->addEdge(n_isp, n_gray);
    dag->addEdge(n_gray, n_blur);
    dag->addEdge(n_blur, n_gx);
    dag->addEdge(n_blur, n_gy);
    dag->addEdge(n_gx, n_gx2);
    dag->addEdge(n_gy, n_gy2);
    dag->addEdge(n_gx2, n_sum);
    dag->addEdge(n_gy2, n_sum);
    dag->addEdge(n_sum, n_mag);
    dag->addEdge(n_gy, n_dir); // atan2(gy, gx): operand order matters.
    dag->addEdge(n_gx, n_dir);
    dag->addEdge(n_mag, n_nms);
    dag->addEdge(n_dir, n_nms);
    dag->addEdge(n_nms, n_et);
    dag->addEdge(n_et, n_boost);

    if (config.functional) {
        const float low_t = 0.05f, high_t = 0.15f;
        n_isp->fn = ispFn(makeSyntheticScene(w, h, config.seed));
        n_gray->fn = grayFn(w, h);
        n_blur->fn = convFn(gaussianFilter(5), w, h);
        n_gx->fn = convFn(sobelX(), w, h);
        n_gy->fn = convFn(sobelY(), w, h);
        n_gx2->fn = emFn(ElemOp::Sqr);
        n_gy2->fn = emFn(ElemOp::Sqr);
        n_sum->fn = emFn(ElemOp::Add);
        n_mag->fn = emFn(ElemOp::Sqrt);
        n_dir->fn = emFn(ElemOp::Atan2);
        n_nms->fn = [w, h](const Inputs &in, std::vector<float> &out) {
            RELIEF_ASSERT(in.size() == 2, "canny NMS needs 2 inputs");
            out.resize(std::size_t(w) * std::size_t(h));
            cannyNonMaxBuf(in[0]->data(), in[1]->data(), w, h, out.data());
        };
        n_et->fn = [w, h, low_t, high_t](const Inputs &in,
                                         std::vector<float> &out) {
            RELIEF_ASSERT(in.size() == 1, "edge tracking needs 1 input");
            out.resize(std::size_t(w) * std::size_t(h));
            edgeTrackingBuf(in[0]->data(), w, h, low_t, high_t,
                            out.data());
        };
        n_boost->fn = emFn(ElemOp::Scale, 1.0f);
    }
    return dag;
}

DagPtr
buildDeblur(const AppConfig &config)
{
    const int w = config.width, h = config.height;
    const std::uint32_t elems = std::uint32_t(w) * std::uint32_t(h);
    auto dag = std::make_shared<Dag>("deblur", 'D');

    Filter2D psf = gaussianFilter(5, 1.2f);
    Filter2D mirrored = psf.flipped();

    Node *n_isp = dag->addNode(simpleTask(AccType::ISP, elems),
                               "deblur.isp");
    Node *n_gray = dag->addNode(simpleTask(AccType::Grayscale, elems),
                                "deblur.gray");
    dag->addEdge(n_isp, n_gray);

    if (config.functional) {
        n_isp->fn = ispFn(makeSyntheticScene(w, h, config.seed));
        n_gray->fn = grayFn(w, h);
    }

    Node *estimate = n_gray; // est_1 = observed image.
    for (int it = 0; it < config.deblurIters; ++it) {
        std::string prefix = "deblur.it" + std::to_string(it);
        Node *reblur = dag->addNode(convTask(5, elems),
                                    prefix + ".reblur");
        Node *ratio = dag->addNode(emTask(ElemOp::Div, 2, elems),
                                   prefix + ".ratio");
        Node *corr = dag->addNode(convTask(5, elems), prefix + ".corr");
        Node *update = dag->addNode(emTask(ElemOp::Mul, 2, elems),
                                    prefix + ".update");
        dag->addEdge(estimate, reblur);
        dag->addEdge(n_gray, ratio); // ratio = observed / reblurred
        dag->addEdge(reblur, ratio);
        dag->addEdge(ratio, corr);
        dag->addEdge(estimate, update); // update = est * correction
        dag->addEdge(corr, update);

        if (config.functional) {
            reblur->fn = convFn(psf, w, h);
            ratio->fn = emFn(ElemOp::Div);
            corr->fn = convFn(mirrored, w, h);
            update->fn = emFn(ElemOp::Mul);
        }
        estimate = update;
    }
    return dag;
}

DagPtr
buildHarris(const AppConfig &config)
{
    const int w = config.width, h = config.height;
    const std::uint32_t elems = std::uint32_t(w) * std::uint32_t(h);
    const float k = 0.04f;
    auto dag = std::make_shared<Dag>("harris", 'H');

    Node *n_isp = dag->addNode(simpleTask(AccType::ISP, elems),
                               "harris.isp");
    Node *n_gray = dag->addNode(simpleTask(AccType::Grayscale, elems),
                                "harris.gray");
    Node *n_ix = dag->addNode(convTask(3, elems), "harris.sobel_x");
    Node *n_iy = dag->addNode(convTask(3, elems), "harris.sobel_y");
    Node *n_ixx = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                               "harris.ixx");
    Node *n_iyy = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                               "harris.iyy");
    Node *n_ixy = dag->addNode(emTask(ElemOp::Mul, 2, elems),
                               "harris.ixy");
    Node *n_sxx = dag->addNode(convTask(5, elems), "harris.sxx");
    Node *n_syy = dag->addNode(convTask(5, elems), "harris.syy");
    Node *n_sxy = dag->addNode(convTask(5, elems), "harris.sxy");
    Node *n_det_a = dag->addNode(emTask(ElemOp::Mul, 2, elems),
                                 "harris.det_a");
    Node *n_det_b = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                                 "harris.det_b");
    Node *n_det = dag->addNode(emTask(ElemOp::Sub, 2, elems),
                               "harris.det");
    // Fused k*(sxx+syy)^2 stage: one elem-matrix task (DESIGN.md
    // documents this fusion; timing is a single EM task either way).
    Node *n_ktr2 = dag->addNode(emTask(ElemOp::Sqr, 2, elems),
                                "harris.ktrace2");
    Node *n_resp = dag->addNode(emTask(ElemOp::Sub, 2, elems),
                                "harris.response");
    Node *n_hnm = dag->addNode(
        simpleTask(AccType::HarrisNonMax, elems), "harris.nonmax");

    dag->addEdge(n_isp, n_gray);
    dag->addEdge(n_gray, n_ix);
    dag->addEdge(n_gray, n_iy);
    dag->addEdge(n_ix, n_ixx);
    dag->addEdge(n_iy, n_iyy);
    dag->addEdge(n_ix, n_ixy);
    dag->addEdge(n_iy, n_ixy);
    dag->addEdge(n_ixx, n_sxx);
    dag->addEdge(n_iyy, n_syy);
    dag->addEdge(n_ixy, n_sxy);
    dag->addEdge(n_sxx, n_det_a);
    dag->addEdge(n_syy, n_det_a);
    dag->addEdge(n_sxy, n_det_b);
    dag->addEdge(n_det_a, n_det);
    dag->addEdge(n_det_b, n_det);
    dag->addEdge(n_sxx, n_ktr2);
    dag->addEdge(n_syy, n_ktr2);
    dag->addEdge(n_det, n_resp);
    dag->addEdge(n_ktr2, n_resp);
    dag->addEdge(n_resp, n_hnm);

    if (config.functional) {
        n_isp->fn = ispFn(makeSyntheticScene(w, h, config.seed));
        n_gray->fn = grayFn(w, h);
        n_ix->fn = convFn(sobelX(), w, h);
        n_iy->fn = convFn(sobelY(), w, h);
        n_ixx->fn = emFn(ElemOp::Sqr);
        n_iyy->fn = emFn(ElemOp::Sqr);
        n_ixy->fn = emFn(ElemOp::Mul);
        Filter2D window = gaussianFilter(5);
        n_sxx->fn = convFn(window, w, h);
        n_syy->fn = convFn(window, w, h);
        n_sxy->fn = convFn(window, w, h);
        n_det_a->fn = emFn(ElemOp::Mul);
        n_det_b->fn = emFn(ElemOp::Sqr);
        n_det->fn = emFn(ElemOp::Sub);
        n_ktr2->fn = [k](const Inputs &in, std::vector<float> &out) {
            RELIEF_ASSERT(in.size() == 2, "ktrace2 needs 2 inputs");
            RELIEF_ASSERT(in[0]->size() == in[1]->size(),
                          "ktrace2 operand size mismatch");
            // k * (sxx + syy)^2, one rounding per op, in place.
            out.resize(in[0]->size());
            float *t = out.data();
            elemwiseBuf(ElemOp::Add, in[0]->data(), in[1]->data(), 1.0f,
                        t, out.size());
            elemwiseBuf(ElemOp::Sqr, t, nullptr, 1.0f, t, out.size());
            elemwiseBuf(ElemOp::Scale, t, nullptr, k, t, out.size());
        };
        n_resp->fn = emFn(ElemOp::Sub);
        n_hnm->fn = [w, h](const Inputs &in, std::vector<float> &out) {
            RELIEF_ASSERT(in.size() == 1, "harris NMS needs 1 input");
            out.resize(std::size_t(w) * std::size_t(h));
            harrisNonMaxBuf(in[0]->data(), w, h, out.data());
        };
    }
    return dag;
}

} // namespace relief
