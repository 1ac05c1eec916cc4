#include "sim/build_info.hh"

#include "stats/json.hh"

// CMake supplies these; stray compiles (e.g. tooling) fall back so
// the artifact still carries a well-formed build_info object.
#ifndef RELIEF_GIT_SHA
#define RELIEF_GIT_SHA "unknown"
#endif
#ifndef RELIEF_COMPILER_ID
#define RELIEF_COMPILER_ID "unknown"
#endif
#ifndef RELIEF_COMPILER_VERSION
#define RELIEF_COMPILER_VERSION "unknown"
#endif
#ifndef RELIEF_BUILD_TYPE
#define RELIEF_BUILD_TYPE "unspecified"
#endif
#ifndef RELIEF_CXX_FLAGS
#define RELIEF_CXX_FLAGS ""
#endif

namespace relief
{

void
writeBuildInfoJson(JsonWriter &w)
{
    w.beginObject()
        .field("git_sha", RELIEF_GIT_SHA)
        .field("compiler_id", RELIEF_COMPILER_ID)
        .field("compiler_version", RELIEF_COMPILER_VERSION)
        .field("build_type",
               RELIEF_BUILD_TYPE[0] ? RELIEF_BUILD_TYPE : "unspecified")
        .field("cxx_flags", RELIEF_CXX_FLAGS)
        .end();
}

void
writeBuildInfoJson(std::ostream &os, int indent)
{
    JsonWriter w(os, indent);
    writeBuildInfoJson(w);
}

} // namespace relief
