#include "core/cli.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{

PolicyKind
policyFromName(const std::string &name)
{
    for (PolicyKind kind : allPolicies)
        if (name == policyName(kind))
            return kind;
    if (name == policyName(PolicyKind::ReliefHetSched))
        return PolicyKind::ReliefHetSched;
    fatal("unknown policy '", name, "'\n", cliUsage());
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

std::string
cliUsage()
{
    return "usage: relief_sim [--mix SYMBOLS] [--policy NAME] "
           "[--continuous] [--limit-ms X] [--fabric bus|xbar|ring] "
           "[--instances EM=2,C=2] [--banked-memory] "
           "[--mem-efficiency X] [--bw-predictor KIND] "
           "[--dm-predictor KIND] [--spm-partitions N] "
           "[--no-feasibility] [--no-forwarding] [--stream-forwarding] "
           "[--dma-burst N] [--submit-latency-us X] [--functional] "
           "[--seed N] [--debug-flags LIST] "
           "[--stats-json FILE] [--latency-breakdown] "
           "[--pressure-tracks] [--config FILE]";
}

namespace
{

/** Apply "EM=2,C=1" style instance specs. */
void
parseInstances(const std::string &spec, SocConfig &config)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("bad --instances item '", item, "' (want SYMBOL=N)");
        AccType type = accTypeFromSymbol(item.substr(0, eq));
        int count = std::atoi(item.c_str() + eq + 1);
        if (count < 1)
            fatal("bad instance count in '", item, "'");
        config.instances[accIndex(type)] = count;
        pos = comma + 1;
    }
}

} // namespace

std::vector<std::string>
readConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read config file '", path, "'");
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(in, line)) {
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream words(line);
        std::string word;
        while (words >> word)
            tokens.push_back(word);
    }
    return tokens;
}

ExperimentConfig
parseCliOptions(const std::vector<std::string> &raw_args)
{
    // Splice --config files in place (one level; nested --config in a
    // file is rejected to keep inclusion loops impossible).
    std::vector<std::string> args;
    for (std::size_t i = 0; i < raw_args.size(); ++i) {
        if (raw_args[i] == "--config") {
            if (i + 1 >= raw_args.size())
                fatal("--config needs a file path\n", cliUsage());
            auto file_args = readConfigFile(raw_args[++i]);
            for (const std::string &token : file_args) {
                if (token == "--config")
                    fatal("nested --config is not supported");
                args.push_back(token);
            }
        } else {
            args.push_back(raw_args[i]);
        }
    }

    ExperimentConfig config;
    auto need_value = [&](std::size_t i) -> const std::string & {
        if (i + 1 >= args.size())
            fatal("flag ", args[i], " needs a value\n", cliUsage());
        return args[i + 1];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--mix") {
            config.mix = need_value(i);
            parseMix(config.mix); // validate
            ++i;
        } else if (arg == "--policy") {
            config.soc.policy = policyFromName(need_value(i));
            ++i;
        } else if (arg == "--continuous") {
            config.continuous = true;
        } else if (arg == "--limit-ms") {
            double ms = std::atof(need_value(i).c_str());
            if (ms <= 0.0)
                fatal("--limit-ms needs a positive value");
            config.timeLimit = fromMs(ms);
            ++i;
        } else if (arg == "--fabric") {
            const std::string &value = need_value(i);
            if (value == "bus")
                config.soc.fabric = FabricKind::Bus;
            else if (value == "xbar")
                config.soc.fabric = FabricKind::Crossbar;
            else if (value == "ring")
                config.soc.fabric = FabricKind::Ring;
            else
                fatal("unknown fabric '", value,
                      "' (bus, xbar, or ring)");
            ++i;
        } else if (arg == "--instances") {
            parseInstances(need_value(i), config.soc);
            ++i;
        } else if (arg == "--banked-memory") {
            config.soc.bankedMemory = true;
        } else if (arg == "--mem-efficiency") {
            double eff = std::atof(need_value(i).c_str());
            if (eff <= 0.0 || eff > 1.0)
                fatal("--mem-efficiency must be in (0, 1]");
            config.soc.mem.efficiency = eff;
            ++i;
        } else if (arg == "--bw-predictor") {
            const std::string &value = need_value(i);
            if (value == "max")
                config.soc.bwPredictor = BwPredictorKind::Max;
            else if (value == "last")
                config.soc.bwPredictor = BwPredictorKind::Last;
            else if (value == "average")
                config.soc.bwPredictor = BwPredictorKind::Average;
            else if (value == "ewma")
                config.soc.bwPredictor = BwPredictorKind::Ewma;
            else
                fatal("unknown bandwidth predictor '", value, "'");
            ++i;
        } else if (arg == "--dm-predictor") {
            const std::string &value = need_value(i);
            if (value == "max")
                config.soc.dmPredictor = DmPredictorKind::Max;
            else if (value == "graph")
                config.soc.dmPredictor = DmPredictorKind::Graph;
            else
                fatal("unknown data-movement predictor '", value, "'");
            ++i;
        } else if (arg == "--submit-latency-us") {
            double us = std::atof(need_value(i).c_str());
            if (us < 0.0)
                fatal("--submit-latency-us must be non-negative");
            config.soc.manager.submitLatency = fromUs(us);
            ++i;
        } else if (arg == "--dma-burst") {
            long n = std::atol(need_value(i).c_str());
            if (n < 0)
                fatal("--dma-burst needs a non-negative byte count");
            config.soc.dma.burstBytes = std::uint64_t(n);
            ++i;
        } else if (arg == "--spm-partitions") {
            int n = std::atoi(need_value(i).c_str());
            if (n < 1)
                fatal("--spm-partitions needs a positive count");
            config.soc.spmPartitions = n;
            ++i;
        } else if (arg == "--no-feasibility") {
            config.soc.reliefFeasibilityCheck = false;
        } else if (arg == "--no-forwarding") {
            config.soc.manager.forwardingEnabled = false;
        } else if (arg == "--stream-forwarding") {
            config.soc.manager.forwardMechanism =
                ForwardMechanism::StreamBuffer;
        } else if (arg == "--functional") {
            config.app.functional = true;
        } else if (arg == "--seed") {
            config.app.seed = std::uint32_t(
                std::strtoul(need_value(i).c_str(), nullptr, 10));
            ++i;
        } else if (arg == "--debug-flags") {
            config.debugFlags = need_value(i);
            setDebugFlags(config.debugFlags);
            ++i;
        } else if (arg == "--stats-json") {
            config.statsJsonPath = need_value(i);
            ++i;
        } else if (arg == "--latency-breakdown") {
            config.latencyBreakdown = true;
        } else if (arg == "--pressure-tracks") {
            config.soc.pressureTracks = true;
        } else {
            fatal("unknown flag '", arg, "'\n", cliUsage());
        }
    }
    return config;
}

} // namespace relief
