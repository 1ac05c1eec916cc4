/**
 * @file
 * The five benchmark applications (paper Table V) as task DAGs.
 *
 * | Symbol | Benchmark                 | Input          | Deadline |
 * |   C    | Canny edge detection      | 128x128        | 16.6 ms  |
 * |   D    | Richardson-Lucy deblur    | 128x128, 5 it  | 16.6 ms  |
 * |   G    | GRU                       | 128 (seq 8)    |  7 ms    |
 * |   H    | Harris corner detection   | 128x128        | 16.6 ms  |
 * |   L    | LSTM                      | 128 (seq 8)    |  7 ms    |
 *
 * DAG shapes are derived from Fig. 1 and cross-checked against the
 * Table II compute-time arithmetic (see DESIGN.md). When `functional`
 * is set, every node carries a closure that computes its real output,
 * and the leaf output matches the reference pipelines in src/kernels.
 */

#ifndef RELIEF_DAG_APPS_APPS_HH
#define RELIEF_DAG_APPS_APPS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dag/dag.hh"

namespace relief
{

/** Application identifiers (the paper's mix symbols). */
enum class AppId : char
{
    Canny = 'C',
    Deblur = 'D',
    Gru = 'G',
    Harris = 'H',
    Lstm = 'L',
};

/** All five applications in symbol order. */
extern const std::vector<AppId> allApps;

/** Builder knobs shared by all applications. */
struct AppConfig
{
    int width = 128;      ///< Image width (vision apps).
    int height = 128;     ///< Image height.
    int seqLen = 8;       ///< RNN sequence length.
    int deblurIters = 5;  ///< Richardson-Lucy iterations.
    bool functional = false; ///< Attach functional payloads.
    std::uint32_t seed = 1;  ///< Input/weight generator seed.
};

/** Relative deadline for @p app (Table V). */
Tick appDeadline(AppId app);

/** Full name, e.g. "canny". */
std::string appName(AppId app);

/**
 * Build the (finalized) DAG for @p app. Its relative deadline is
 * appDeadline() times @p deadline_scale (a serving QoS class's scale),
 * set before finalize() because every per-node deadline derives from it.
 */
DagPtr buildApp(AppId app, const AppConfig &config = {},
                double deadline_scale = 1.0);

/** Parse a mix string such as "CDL" into application ids. */
std::vector<AppId> parseMix(const std::string &mix);

// Individual builders (not finalized; buildApp() finalizes).
DagPtr buildCanny(const AppConfig &config);
DagPtr buildDeblur(const AppConfig &config);
DagPtr buildHarris(const AppConfig &config);
DagPtr buildGru(const AppConfig &config);
DagPtr buildLstm(const AppConfig &config);

/**
 * Expected functional leaf output of the GRU/LSTM DAGs built with the
 * same @p config, computed directly with the kernel-level cells
 * (src/kernels/rnn). Used to validate end-to-end DAG execution.
 */
std::vector<float> gruReferenceOutput(const AppConfig &config);
std::vector<float> lstmReferenceOutput(const AppConfig &config);

} // namespace relief

#endif // RELIEF_DAG_APPS_APPS_HH
