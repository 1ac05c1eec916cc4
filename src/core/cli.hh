/**
 * @file
 * Command-line configuration for the `relief_sim` driver (and anything
 * else that wants string-driven setup). Parses flags into an
 * ExperimentConfig; unknown flags raise FatalError with a usage hint.
 *
 * Supported flags:
 *   --mix SYMBOLS          applications, e.g. CDL (default C)
 *   --policy NAME          FCFS|GEDF-D|GEDF-N|LL|LAX|HetSched|
 *                          RELIEF-LAX|RELIEF|RELIEF-HS (default RELIEF)
 *   --continuous           loop applications until the time limit
 *   --limit-ms X           simulation cap in ms (default 50)
 *   --fabric KIND          bus | xbar | ring
 *   --instances SPEC       per-type counts, e.g. EM=2,C=2 (symbols from
 *                          Table I: I,G,C,EM,CNM,HNM,ET)
 *   --banked-memory        bank-aware DRAM model
 *   --mem-efficiency X     flat-model streaming efficiency (0..1]
 *   --bw-predictor KIND    max|last|average|ewma
 *   --dm-predictor KIND    max|graph
 *   --spm-partitions N     output partitions per scratchpad
 *   --no-feasibility       disable RELIEF's is_feasible throttle
 *   --no-forwarding        disable the forwarding hardware
 *   --stream-forwarding    AXI-stream FIFOs instead of SPM-to-SPM DMA
 *   --functional           attach functional payloads
 *   --dma-burst N          burst-interleaved DMA (0 = whole buffer)
 *   --submit-latency-us X  host command-queue submission cost
 *   --seed N               input/weight generator seed
 *   --debug-flags LIST     enable debug categories, e.g. Sched,Dma
 *                          (Sched|Dma|Mem|Fabric|Stats|Event; see
 *                          sim/debug.hh)
 *   --stats-json FILE      write the stat registry as JSON after the run
 *   --latency-breakdown    print the per-DAG critical-path table
 *   --config FILE          splice flags from a file
 */

#ifndef RELIEF_CORE_CLI_HH
#define RELIEF_CORE_CLI_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

namespace relief
{

/**
 * Parse @p args (no program name) into an experiment configuration.
 * `--config FILE` splices in flags read from FILE: whitespace-
 * separated tokens, one or more per line, '#' starts a comment.
 */
ExperimentConfig parseCliOptions(const std::vector<std::string> &args);

/** Read flags from a config file (see parseCliOptions). */
std::vector<std::string> readConfigFile(const std::string &path);

/** Resolve a policy name as printed by policyName(). */
PolicyKind policyFromName(const std::string &name);

/** Resolve an accelerator-type symbol (Table I: "EM", "C", ...). */
AccType accTypeFromSymbol(const std::string &symbol);

/** One-line usage summary for error messages. */
std::string cliUsage();

} // namespace relief

#endif // RELIEF_CORE_CLI_HH
