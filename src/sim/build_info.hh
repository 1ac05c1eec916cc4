/**
 * @file
 * Build provenance stamped into every emitted JSON artifact.
 *
 * A number can only be attributed to a code change if each document
 * records what produced it. CMake captures the git sha at configure
 * time plus the compiler identity, build type, and flags, and passes
 * them as compile definitions; every artifact writer (stats, serve,
 * trace, pressure, hostprof, and the benchmark's report) embeds the
 * result as a `build_info` object, which scripts/check_bench_schema.py
 * requires.
 *
 * The sha is refreshed on reconfigure, not on every commit — close
 * enough for trajectory attribution, and free at build time.
 */

#ifndef RELIEF_SIM_BUILD_INFO_HH
#define RELIEF_SIM_BUILD_INFO_HH

#include "stats/json.hh"

namespace relief
{

/**
 * Write the canonical `build_info` JSON object as the next value: the
 * git sha ("unknown" outside git), compiler id and version, CMake
 * build type ("unspecified" when empty) and CMAKE_CXX_FLAGS.
 */
void writeBuildInfoJson(JsonWriter &w);

/** The same object alone on @p os, its opening brace at column
 *  @p indent (no trailing newline). */
void writeBuildInfoJson(std::ostream &os, int indent = 0);

} // namespace relief

#endif // RELIEF_SIM_BUILD_INFO_HH
