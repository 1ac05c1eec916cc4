#include "sim/debug.hh"

#include <sstream>

namespace relief
{

namespace debug_detail
{
// Thread-local so independent simulations on a parallel runner's
// worker threads keep isolated flag sets (core/parallel.hh copies the
// launching thread's mask into each worker).
thread_local constinit std::uint32_t enabledMask = 0;
} // namespace debug_detail

using debug_detail::enabledMask;

const char *
debugFlagName(DebugFlag flag)
{
    switch (flag) {
      case DebugFlag::Sched:
        return "Sched";
      case DebugFlag::Dma:
        return "Dma";
      case DebugFlag::Mem:
        return "Mem";
      case DebugFlag::Fabric:
        return "Fabric";
      case DebugFlag::Stats:
        return "Stats";
      case DebugFlag::Event:
        return "Event";
      case DebugFlag::Serve:
        return "Serve";
    }
    return "?";
}

const std::vector<DebugFlag> &
allDebugFlags()
{
    static const std::vector<DebugFlag> flags = {
        DebugFlag::Sched, DebugFlag::Dma,   DebugFlag::Mem,
        DebugFlag::Fabric, DebugFlag::Stats, DebugFlag::Event,
        DebugFlag::Serve,
    };
    return flags;
}

void
setDebugFlag(DebugFlag flag, bool enabled)
{
    const std::uint32_t bit = std::uint32_t(1) << std::size_t(flag);
    enabledMask = enabled ? enabledMask | bit : enabledMask & ~bit;
}

bool
setDebugFlagByName(const std::string &name, bool enabled)
{
    for (DebugFlag flag : allDebugFlags()) {
        if (name == debugFlagName(flag)) {
            setDebugFlag(flag, enabled);
            return true;
        }
    }
    return false;
}

void
setDebugFlags(const std::string &csv)
{
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string item = csv.substr(pos, comma - pos);
        if (!item.empty() && !setDebugFlagByName(item)) {
            std::ostringstream valid;
            for (DebugFlag flag : allDebugFlags())
                valid << (valid.tellp() > 0 ? "," : "")
                      << debugFlagName(flag);
            fatal("unknown debug flag '", item, "' (valid: ", valid.str(),
                  ")");
        }
        pos = comma + 1;
    }
}

void
clearDebugFlags()
{
    enabledMask = 0;
}

std::uint32_t
debugFlagMask()
{
    return enabledMask;
}

void
setDebugFlagMask(std::uint32_t mask)
{
    enabledMask = mask;
}

void
debugPrint(DebugFlag flag, Tick when, const std::string &who,
           const std::string &msg)
{
    (void)flag;
    // gem5's classic "tick: object: message" layout; the fixed-width
    // tick column keeps interleaved categories visually aligned.
    std::ostringstream os;
    os.width(12);
    os << when;
    os << ": " << who << ": " << msg;
    detail::logLine(LogLevel::Debug, os.str());
}

} // namespace relief
