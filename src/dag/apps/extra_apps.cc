#include "dag/apps/extra_apps.hh"

#include <memory>

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

Plane
sharpenReference(const BayerImage &raw, float amount)
{
    Plane gray = grayscale(isp(raw));
    Plane blurred = convolve(gray, gaussianFilter(5));
    Plane detail = elemwise(ElemOp::Sub, gray, &blurred);
    Plane boosted = elemwise(ElemOp::Scale, detail, nullptr, amount);
    return elemwise(ElemOp::Add, gray, &boosted);
}

Plane
sobelViewReference(const BayerImage &raw)
{
    Plane gray = grayscale(isp(raw));
    Plane gx = convolve(gray, sobelX());
    Plane gy = convolve(gray, sobelY());
    Plane gx2 = elemwise(ElemOp::Sqr, gx);
    Plane gy2 = elemwise(ElemOp::Sqr, gy);
    Plane sum = elemwise(ElemOp::Add, gx2, &gy2);
    return elemwise(ElemOp::Sqrt, sum);
}

Plane
motionReference(const BayerImage &frame_a, const BayerImage &frame_b,
                float threshold)
{
    Plane a = convolve(grayscale(isp(frame_a)), gaussianFilter(3));
    Plane b = convolve(grayscale(isp(frame_b)), gaussianFilter(3));
    Plane diff = elemwise(ElemOp::Sub, a, &b);
    Plane diff2 = elemwise(ElemOp::Sqr, diff);
    Plane mag = elemwise(ElemOp::Sqrt, diff2);
    // Threshold with edge tracking's hysteresis machinery: anything
    // above the threshold is motion.
    return edgeTracking(mag, threshold, threshold);
}

DagPtr
buildSharpen(const AppConfig &config)
{
    const int w = config.width, h = config.height;
    const std::uint32_t elems = std::uint32_t(w) * std::uint32_t(h);
    const float amount = 0.6f;
    auto dag = std::make_shared<Dag>("sharpen", 'S');

    Node *n_isp = dag->addNode(simpleTask(AccType::ISP, elems),
                               "sharpen.isp");
    Node *n_gray = dag->addNode(simpleTask(AccType::Grayscale, elems),
                                "sharpen.gray");
    Node *n_blur = dag->addNode(convTask(5, elems), "sharpen.blur");
    Node *n_detail = dag->addNode(emTask(ElemOp::Sub, 2, elems),
                                  "sharpen.detail");
    Node *n_boost = dag->addNode(emTask(ElemOp::Scale, 1, elems),
                                 "sharpen.boost");
    Node *n_out = dag->addNode(emTask(ElemOp::Add, 2, elems),
                               "sharpen.out");
    dag->addEdge(n_isp, n_gray);
    dag->addEdge(n_gray, n_blur);
    dag->addEdge(n_gray, n_detail); // detail = gray - blurred
    dag->addEdge(n_blur, n_detail);
    dag->addEdge(n_detail, n_boost);
    dag->addEdge(n_gray, n_out); // out = gray + boosted detail
    dag->addEdge(n_boost, n_out);

    if (config.functional) {
        n_isp->fn = ispFn(makeSyntheticScene(w, h, config.seed));
        n_gray->fn = grayFn(w, h);
        n_blur->fn = convFn(gaussianFilter(5), w, h);
        n_detail->fn = emFn(ElemOp::Sub);
        n_boost->fn = emFn(ElemOp::Scale, amount);
        n_out->fn = emFn(ElemOp::Add);
    }
    dag->setRelativeDeadline(fromMs(16.6));
    dag->finalize();
    return dag;
}

DagPtr
buildSobelView(const AppConfig &config)
{
    const int w = config.width, h = config.height;
    const std::uint32_t elems = std::uint32_t(w) * std::uint32_t(h);
    auto dag = std::make_shared<Dag>("sobel-view", 'V');

    Node *n_isp = dag->addNode(simpleTask(AccType::ISP, elems),
                               "sobel.isp");
    Node *n_gray = dag->addNode(simpleTask(AccType::Grayscale, elems),
                                "sobel.gray");
    Node *n_gx = dag->addNode(convTask(3, elems), "sobel.gx");
    Node *n_gy = dag->addNode(convTask(3, elems), "sobel.gy");
    Node *n_gx2 = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                               "sobel.gx2");
    Node *n_gy2 = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                               "sobel.gy2");
    Node *n_sum = dag->addNode(emTask(ElemOp::Add, 2, elems),
                               "sobel.sum");
    Node *n_mag = dag->addNode(emTask(ElemOp::Sqrt, 1, elems),
                               "sobel.mag");
    dag->addEdge(n_isp, n_gray);
    dag->addEdge(n_gray, n_gx);
    dag->addEdge(n_gray, n_gy);
    dag->addEdge(n_gx, n_gx2);
    dag->addEdge(n_gy, n_gy2);
    dag->addEdge(n_gx2, n_sum);
    dag->addEdge(n_gy2, n_sum);
    dag->addEdge(n_sum, n_mag);

    if (config.functional) {
        n_isp->fn = ispFn(makeSyntheticScene(w, h, config.seed));
        n_gray->fn = grayFn(w, h);
        n_gx->fn = convFn(sobelX(), w, h);
        n_gy->fn = convFn(sobelY(), w, h);
        n_gx2->fn = emFn(ElemOp::Sqr);
        n_gy2->fn = emFn(ElemOp::Sqr);
        n_sum->fn = emFn(ElemOp::Add);
        n_mag->fn = emFn(ElemOp::Sqrt);
    }
    dag->setRelativeDeadline(fromMs(16.6));
    dag->finalize();
    return dag;
}

DagPtr
buildMotion(const AppConfig &config)
{
    const int w = config.width, h = config.height;
    const std::uint32_t elems = std::uint32_t(w) * std::uint32_t(h);
    const float threshold = 0.08f;
    auto dag = std::make_shared<Dag>("motion", 'M');

    auto frame_chain = [&](const char *prefix, std::uint32_t seed,
                           Node *&smooth_out) {
        Node *n_isp = dag->addNode(simpleTask(AccType::ISP, elems),
                                   std::string(prefix) + ".isp");
        Node *n_gray = dag->addNode(
            simpleTask(AccType::Grayscale, elems),
            std::string(prefix) + ".gray");
        Node *n_smooth = dag->addNode(convTask(3, elems),
                                      std::string(prefix) + ".smooth");
        dag->addEdge(n_isp, n_gray);
        dag->addEdge(n_gray, n_smooth);
        if (config.functional) {
            n_isp->fn = ispFn(makeSyntheticScene(w, h, seed));
            n_gray->fn = grayFn(w, h);
            n_smooth->fn = convFn(gaussianFilter(3), w, h);
        }
        smooth_out = n_smooth;
    };

    Node *a = nullptr, *b = nullptr;
    frame_chain("motion.a", config.seed, a);
    frame_chain("motion.b", config.seed + 1, b);

    Node *n_diff = dag->addNode(emTask(ElemOp::Sub, 2, elems),
                                "motion.diff");
    Node *n_diff2 = dag->addNode(emTask(ElemOp::Sqr, 1, elems),
                                 "motion.diff2");
    Node *n_mag = dag->addNode(emTask(ElemOp::Sqrt, 1, elems),
                               "motion.mag");
    Node *n_mask = dag->addNode(
        simpleTask(AccType::EdgeTracking, elems), "motion.mask");
    dag->addEdge(a, n_diff);
    dag->addEdge(b, n_diff);
    dag->addEdge(n_diff, n_diff2);
    dag->addEdge(n_diff2, n_mag);
    dag->addEdge(n_mag, n_mask);

    if (config.functional) {
        n_diff->fn = emFn(ElemOp::Sub);
        n_diff2->fn = emFn(ElemOp::Sqr);
        n_mag->fn = emFn(ElemOp::Sqrt);
        n_mask->fn = [w, h, threshold](const Inputs &in,
                                       std::vector<float> &out) {
            RELIEF_ASSERT(in.size() == 1, "motion mask needs 1 input");
            out.resize(std::size_t(w) * std::size_t(h));
            edgeTrackingBuf(in[0]->data(), w, h, threshold, threshold,
                            out.data());
        };
    }
    dag->setRelativeDeadline(fromMs(16.6));
    dag->finalize();
    return dag;
}

} // namespace relief
