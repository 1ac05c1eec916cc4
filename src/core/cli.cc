#include "core/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <type_traits>

#include "dag/workload_file.hh"
#include "sim/debug.hh"

namespace relief
{

namespace
{

/** Read all of @p text as a W; false on leftovers or overflow. */
template <typename W>
bool
readWhole(const std::string &text, W &out)
{
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<W>)
        out = std::strtod(text.c_str(), &end);
    else if constexpr (std::is_signed_v<W>)
        out = std::strtoll(text.c_str(), &end, 10);
    else
        out = std::strtoull(text.c_str(), &end, 10);
    return !text.empty() && *end == '\0' && errno == 0;
}

/** Whitespace-separated words of @p text. */
std::vector<std::string>
words(const std::string &text)
{
    std::istringstream in(text);
    return {std::istream_iterator<std::string>(in), {}};
}

/** @p lead then @p pieces, space-separated, wrapped before column 80
 *  onto lines whose text starts at column @p indent. */
std::string
wrap(std::string lead, const std::vector<std::string> &pieces,
     std::size_t indent)
{
    std::size_t line_start = 0;
    for (const std::string &piece : pieces) {
        // Wrap only a line that holds a piece already.
        std::size_t used = lead.size() - line_start;
        if (used >= indent && used + piece.size() >= 79) {
            line_start = lead.size() + 1;
            lead += '\n';
            lead.append(indent - 1, ' ');
        }
        lead += ' ';
        lead += piece;
    }
    return lead;
}

std::string
synopsis(const Flag &row)
{
    return row.metavar.empty() ? row.name : row.name + " " + row.metavar;
}

/** Whitespace-separated tokens of @p path; '#' starts a comment. */
std::vector<std::string>
readConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read config file '", path, "'");
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(in, line))
        for (std::string &word : words(line.substr(0, line.find('#'))))
            tokens.push_back(std::move(word));
    return tokens;
}

} // namespace

template <typename T>
T
parseNumber(const std::string &what, const std::string &text,
            const Range &range)
{
    using Limits = std::numeric_limits<T>;
    T value{};
    bool ok;
    if constexpr (std::is_floating_point_v<T>) {
        ok = readWhole(text, value) && std::isfinite(value);
    } else {
        std::conditional_t<std::is_signed_v<T>, long long,
                           unsigned long long>
            wide = 0;
        // strtoull negates "-1" into a huge value instead of failing.
        ok = (Limits::is_signed || text.find('-') == std::string::npos) &&
             readWhole(text, wide) && std::in_range<T>(wide);
        value = T(wide);
    }
    double v = double(value);
    if (ok && (range.openLo ? v > range.lo : v >= range.lo) &&
        (range.openHi ? v < range.hi : v <= range.hi))
        return value;

    // Integers name their type's bounds where the range leaves one open.
    auto show = [](double bound, std::string type_bound) {
        std::ostringstream os;
        os << bound;
        return std::isfinite(bound) ? os.str() : type_bound;
    };
    bool integer = Limits::is_integer;
    std::string wanted = integer ? "an integer" : "a number";
    std::string lo = show(range.lo, integer ? std::to_string(Limits::min())
                                            : "-inf");
    std::string hi = show(range.hi, integer ? std::to_string(Limits::max())
                                            : "");
    if (!hi.empty())
        wanted += " in " + std::string(range.openLo ? "(" : "[") + lo +
                  ", " + hi + (range.openHi ? ")" : "]");
    else if (std::isfinite(range.lo))
        wanted += (range.openLo ? " > " : " >= ") + lo;
    fatal(what, " needs ", wanted, ", got '", text, "'");
}

template double parseNumber(const std::string &, const std::string &,
                            const Range &);
template int parseNumber(const std::string &, const std::string &,
                         const Range &);
template std::uint32_t parseNumber(const std::string &, const std::string &,
                                   const Range &);
template std::uint64_t parseNumber(const std::string &, const std::string &,
                                   const Range &);

FlagTable &
FlagTable::add(std::string name, std::string metavar, std::string help,
               std::function<void(FlagValues)> apply)
{
    rows_.push_back({std::move(name), std::move(metavar), std::move(help),
                     std::move(apply)});
    return *this;
}

FlagTable &
FlagTable::configFiles()
{
    configFiles_ = true; // parse() splices the files before any row runs
    return add("--config", "FILE",
               "splice in the flags of FILE ('#' starts a comment)", {});
}

bool
FlagTable::parse(const std::vector<std::string> &raw_args) const
{
    std::vector<std::string> args;
    for (std::size_t i = 0; i < raw_args.size(); ++i) {
        if (!configFiles_ || raw_args[i] != "--config") {
            args.push_back(raw_args[i]);
            continue;
        }
        if (++i == raw_args.size())
            fatal("flag --config needs a value\n", usage());
        for (const std::string &token : readConfigFile(raw_args[i])) {
            if (token == "--config")
                fatal("nested --config is not supported");
            args.push_back(token);
        }
    }

    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--help" || args[i] == "-h") {
            std::cout << help();
            return false;
        }
        const Flag *row = nullptr;
        for (const Flag &candidate : rows_)
            row = candidate.name == args[i] ? &candidate : row;
        if (!row)
            fatal("unknown flag '", args[i], "'\n", usage());
        std::size_t n = words(row->metavar).size();
        if (i + n >= args.size())
            fatal("flag ", args[i], " needs a value\n", usage());
        row->apply(FlagValues(args).subspan(i + 1, n));
        i += n;
    }
    return true;
}

std::string
FlagTable::usage() const
{
    std::vector<std::string> items;
    for (const Flag &row : rows_)
        items.push_back('[' + synopsis(row) + ']');
    return wrap("usage: " + program_, items, 8 + program_.size());
}

std::string
FlagTable::help() const
{
    std::vector<std::pair<std::string, std::string>> lines;
    for (const Flag &row : rows_)
        lines.emplace_back(synopsis(row), row.help);
    lines.emplace_back("-h, --help", "print this help and exit");
    std::size_t width = 0;
    for (const auto &line : lines)
        width = std::max(width, line.first.size());
    std::string out = usage() + "\n\n";
    for (const auto &[left, text] : lines)
        out += wrap("  " + left + std::string(width + 1 - left.size(), ' '),
                    words(text), width + 4) +
               "\n";
    return out;
}

PolicyKind
policyFromName(const std::string &name)
{
    std::string valid;
    for (PolicyKind kind : allPolicies) {
        if (name == policyName(kind))
            return kind;
        valid += std::string(policyName(kind)) + ", ";
    }
    if (name == policyName(PolicyKind::ReliefHetSched))
        return PolicyKind::ReliefHetSched;
    fatal("unknown policy '", name, "' (", valid,
          policyName(PolicyKind::ReliefHetSched), ")");
}

AccType
accTypeFromSymbol(const std::string &symbol)
{
    for (AccType type : allAccTypes)
        if (symbol == accTypeSymbol(type))
            return type;
    fatal("unknown accelerator symbol '", symbol, "' (use I, G, C, EM, "
          "CNM, HNM, or ET)");
}

void
addExperimentFlags(FlagTable &flags, ExperimentConfig &config,
                   std::string &workload_path, bool with_policy)
{
    SocConfig &soc = config.soc;
    flags
        .add("--mix", "SYMBOLS", "applications, e.g. CDL (default C)",
             [&config](FlagValues v) {
                 parseMix(v[0]); // validate
                 config.mix = v[0];
             })
        .text("--workload", "FILE",
              "run the DAGs of a workload file instead of the mix",
              workload_path);
    if (with_policy)
        flags.add("--policy", "NAME",
                  "FCFS | GEDF-D | GEDF-N | LL | LAX | HetSched | "
                  "RELIEF-LAX | RELIEF | RELIEF-HS (default RELIEF)",
                  [&soc](FlagValues v) { soc.policy = policyFromName(v[0]); });
    flags
        .toggle("--continuous", "loop applications until the time limit",
                config.continuous)
        .number("--limit-ms", "X", "simulation cap in ms (default 50)",
                config.timeLimit, positive, fromMs)
        .choice("--fabric", "(default bus)", soc.fabric,
                {{"bus", FabricKind::Bus}, {"xbar", FabricKind::Crossbar},
                 {"ring", FabricKind::Ring}})
        .add("--instances", "SPEC",
             "per-type instance counts, e.g. EM=2,C=2 (Table I symbols: "
             "I,G,C,EM,CNM,HNM,ET)",
             [&soc](FlagValues v) {
                 for (const std::string &item : splitCsv(v[0])) {
                     std::size_t eq = item.find('=');
                     if (eq == std::string::npos)
                         fatal("bad --instances item '", item,
                               "' (want SYMBOL=N)");
                     AccType type = accTypeFromSymbol(item.substr(0, eq));
                     soc.instances[accIndex(type)] = parseNumber<int>(
                         "flag --instances", item.substr(eq + 1), atLeastOne);
                 }
             })
        .toggle("--banked-memory", "bank-aware DRAM model", soc.bankedMemory)
        .number("--mem-efficiency", "X",
                "flat-model streaming efficiency, in (0, 1]",
                soc.mem.efficiency, Range{0.0, 1.0, true})
        .choice("--bw-predictor", "", soc.bwPredictor,
                {{"max", BwPredictorKind::Max},
                 {"last", BwPredictorKind::Last},
                 {"average", BwPredictorKind::Average},
                 {"ewma", BwPredictorKind::Ewma}})
        .choice("--dm-predictor", "", soc.dmPredictor,
                {{"max", DmPredictorKind::Max},
                 {"graph", DmPredictorKind::Graph}})
        .number("--spm-partitions", "N", "output partitions per scratchpad",
                soc.spmPartitions, atLeastOne)
        .add("--no-feasibility", "", "disable RELIEF's is_feasible throttle",
             [&soc](FlagValues) { soc.reliefFeasibilityCheck = false; })
        .add("--no-forwarding", "", "disable the forwarding hardware",
             [&soc](FlagValues) { soc.manager.forwardingEnabled = false; })
        .add("--stream-forwarding", "",
             "AXI-stream FIFOs instead of SPM-to-SPM DMA",
             [&soc](FlagValues) {
                 soc.manager.forwardMechanism = ForwardMechanism::StreamBuffer;
             })
        .number("--dma-burst", "N",
                "burst-interleaved DMA, bytes per burst (0 = whole buffer)",
                soc.dma.burstBytes)
        .number("--submit-latency-us", "X",
                "host command-queue submission cost",
                soc.manager.submitLatency, nonNegative, fromUs)
        .toggle("--functional", "attach functional payloads",
                config.app.functional)
        .number("--seed", "N", "input/weight generator seed", config.app.seed)
        .configFiles();
    addDebugFlags(flags);
}

void
addDebugFlags(FlagTable &flags)
{
    flags.add("--debug-flags", "LIST",
              "enable debug categories, e.g. Sched,Dma (Sched, Dma, Mem, "
              "Fabric, Stats, Event, Serve)",
              [](FlagValues v) { setDebugFlags(v[0]); });
}

std::vector<std::string>
splitCsv(const std::string &list)
{
    std::vector<std::string> items;
    std::stringstream in(list);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

std::vector<DagPtr>
buildWorkload(const ExperimentConfig &config,
              const std::string &workload_path)
{
    if (!workload_path.empty())
        return loadWorkloadFile(workload_path);
    std::vector<DagPtr> dags;
    for (AppId app : parseMix(config.mix))
        dags.push_back(buildApp(app, config.app));
    return dags;
}

void
writeFile(const std::string &path, const std::string &what,
          const std::function<void(std::ostream &)> &write)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    write(out);
    if (!what.empty())
        std::cout << what << " written to " << path << "\n";
}

} // namespace relief
