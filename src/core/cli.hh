/**
 * @file
 * Command-line plumbing for the drivers (relief_sim, relief_compare,
 * relief_serve, serve_load_sweep). Each driver lists its flags as rows
 * of one FlagTable, which parses the arguments, splices --config files,
 * generates --help from the rows and reports every input error once
 * through fatal(). A driver's `--help` is its flag reference.
 */

#ifndef RELIEF_CORE_CLI_HH
#define RELIEF_CORE_CLI_HH

#include <functional>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "sim/logging.hh"

namespace relief
{

/** Where a numeric input must lie; an open end excludes its bound. */
struct Range
{
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool openLo = false;
    bool openHi = false;
};

inline constexpr Range positive{0.0, Range{}.hi, true};
inline constexpr Range nonNegative{0.0};
inline constexpr Range atLeastOne{1.0};

/** The number in @p text, which must be all number, finite, fit T
 *  (double, int, std::uint32_t or std::uint64_t) and lie in @p range;
 *  otherwise fatal() names @p what (e.g. "flag --seed") and the value. */
template <typename T>
T parseNumber(const std::string &what, const std::string &text,
              const Range &range = {});

/** The values one flag takes, in command-line order. */
using FlagValues = std::span<const std::string>;

/** One flag: the only place its name, metavar, help and parse live. */
struct Flag
{
    std::string name;
    /** One word per value the flag takes ("N", "A.json B.json"); empty
     *  for a switch. */
    std::string metavar;
    std::string help;
    std::function<void(FlagValues)> apply;
};

/** A driver's flags, applied in command-line order. */
class FlagTable
{
  public:
    explicit FlagTable(std::string program) : program_(std::move(program)) {}

    FlagTable &add(std::string name, std::string metavar, std::string help,
                   std::function<void(FlagValues)> apply);

    /** A switch that sets @p target. */
    FlagTable &
    toggle(std::string name, std::string help, bool &target)
    {
        return add(name, "", help, [&target](FlagValues) { target = true; });
    }

    /** A value stored verbatim in @p target. */
    FlagTable &
    text(std::string name, std::string metavar, std::string help,
         std::string &target)
    {
        return add(name, metavar, help,
                   [&target](FlagValues v) { target = v[0]; });
    }

    /** A value read through parseNumber(), converted by @p convert. */
    template <typename Target, typename T = Target>
    FlagTable &
    number(std::string name, std::string metavar, std::string help,
           Target &target, Range range = {}, Target (*convert)(T) = nullptr)
    {
        return add(name, metavar, help,
                   [&target, what = "flag " + name, range, convert](
                       FlagValues v) {
                       T value = parseNumber<T>(what, v[0], range);
                       target = convert ? convert(value) : Target(value);
                   });
    }

    /** A KIND value, one of @p names; the help lists them. */
    template <typename T>
    FlagTable &
    choice(std::string name, std::string help, T &target,
           std::vector<std::pair<std::string, T>> names)
    {
        std::string listed;
        for (const auto &entry : names)
            listed += (listed.empty() ? "" : " | ") + entry.first;
        return add(name, "KIND", help.empty() ? listed : listed + " " + help,
                   [&target, name, names, listed](FlagValues v) {
                       for (const auto &[word, value] : names)
                           if (v[0] == word)
                               return void(target = value);
                       fatal("flag ", name, " got '", v[0], "' (", listed,
                             ")");
                   });
    }

    /** Accept `--config FILE`: FILE's whitespace-separated tokens ('#'
     *  starts a comment) replace it, so a later flag overrides the
     *  file. A file may not name another. */
    FlagTable &configFiles();

    /** Apply @p args (no program name). False when --help or -h printed
     *  the help, so the caller exits 0; FatalError on any bad input. */
    bool parse(const std::vector<std::string> &args) const;

    std::string usage() const;
    std::string help() const;

  private:
    std::string program_;
    std::vector<Flag> rows_;
    bool configFiles_ = false;
};

/** The rows relief_sim and relief_compare share: the workload (--mix,
 *  or --workload into @p workload_path), --policy unless
 *  @p with_policy is false (relief_compare runs every policy), the
 *  Table VI platform knobs, the seed, --config and --debug-flags. */
void addExperimentFlags(FlagTable &flags, ExperimentConfig &config,
                        std::string &workload_path, bool with_policy = true);

/** --debug-flags LIST, which enables the categories as it parses. */
void addDebugFlags(FlagTable &flags);

/** The non-empty items of comma-separated @p list. */
std::vector<std::string> splitCsv(const std::string &list);

/** The DAGs of @p workload_path when set, else of @p config's mix. */
std::vector<DagPtr> buildWorkload(const ExperimentConfig &config,
                                  const std::string &workload_path);

/** Unless @p path is empty, fill a new file there through @p write and
 *  print "WHAT written to PATH" (nothing when @p what is empty); fatal()
 *  when the file cannot be created. */
void writeFile(const std::string &path, const std::string &what,
               const std::function<void(std::ostream &)> &write);

/** Resolve a policy name as printed by policyName(). */
PolicyKind policyFromName(const std::string &name);

/** Resolve an accelerator-type symbol (Table I: "EM", "C", ...). */
AccType accTypeFromSymbol(const std::string &symbol);

} // namespace relief

#endif // RELIEF_CORE_CLI_HH
