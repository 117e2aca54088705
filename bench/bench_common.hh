/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses: loads (or
 * builds and caches) the interval profiles of all 11 workloads and
 * provides small aggregation helpers. Every fig*_ binary prints the
 * rows/series of one paper figure.
 *
 * All harnesses accept `--jobs=N` (or `--jobs N`): profile loading
 * and the experiment grid fan out over N threads (0 or omitted = one
 * per hardware thread, 1 = the plain serial loop). Output is
 * bit-identical for every job count — results come back in grid
 * order and each cell is a pure function of its inputs.
 */

#ifndef TPCP_BENCH_BENCH_COMMON_HH
#define TPCP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/parallel_runner.hh"
#include "common/parse.hh"
#include "trace/profile_cache.hh"
#include "trace/trace_workload.hh"
#include "workload/workload.hh"

namespace tpcp::bench
{

/** An extra flag a harness accepts beyond the shared --jobs. */
struct FlagSpec
{
    /** Flag name without the leading "--". */
    std::string name;
    /** Whether the flag consumes a value (--name=V or --name V). */
    bool takesValue = true;
    /** One-line description shown by --help and on errors. */
    std::string help;
};

/** The value @p text of flag --@p name as a @p T; prints the error
 * and exits 2 when it does not parse whole (see tpcp::parseAll()). */
template <typename T>
T
parseFlagValue(const std::string &name, const std::string &text)
{
    T value{};
    if (!parseAll(text, value)) {
        std::cerr << "error: --" << name << " wants "
                  << (std::is_floating_point_v<T>
                          ? "a finite number"
                          : "a non-negative integer")
                  << ", got '" << text << "'\n";
        std::exit(2);
    }
    return value;
}

/** Command-line options shared by every harness. */
struct BenchArgs
{
    /** Worker threads: 0 = one per hardware thread, 1 = serial. */
    unsigned jobs = 0;
    /** Values of the harness-specific flags, keyed by flag name
     * (value-less flags map to ""). */
    std::map<std::string, std::string> extra;

    bool has(const std::string &name) const
    {
        return extra.count(name) != 0;
    }

    std::string
    get(const std::string &name, const std::string &dflt) const
    {
        auto it = extra.find(name);
        return it == extra.end() ? dflt : it->second;
    }

    /** The flag's value as a whole non-negative integer; exits 2
     * on anything else. */
    std::uint64_t
    getU64(const std::string &name, std::uint64_t dflt) const
    {
        auto it = extra.find(name);
        return it == extra.end()
                   ? dflt
                   : parseFlagValue<std::uint64_t>(name, it->second);
    }

    /** The flag's value as a whole finite number; exits 2 on
     * anything else. */
    double
    getDouble(const std::string &name, double dflt) const
    {
        auto it = extra.find(name);
        return it == extra.end()
                   ? dflt
                   : parseFlagValue<double>(name, it->second);
    }
};

/** The valid-options listing printed by --help and on errors. */
inline std::string
optionHelp(const std::vector<FlagSpec> &extras)
{
    std::string out =
        "  --jobs=N  worker threads (0 = one per hardware thread, "
        "1 = serial)\n";
    for (const FlagSpec &f : extras) {
        out += "  --" + f.name + (f.takesValue ? "=V" : "") + "  " +
               f.help + "\n";
    }
    return out;
}

/**
 * Parses harness arguments: the shared --jobs plus any
 * harness-specific @p extras, in --flag=value or --flag value form.
 * Returns std::nullopt with an error message in @p error for
 * unknown or malformed flags — a typo like --job=4 must fail
 * loudly, not silently run the full serial sweep.
 */
inline std::optional<BenchArgs>
tryParseArgs(const std::vector<std::string> &argv,
             const std::vector<FlagSpec> &extras,
             std::string &error)
{
    BenchArgs args;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        std::string key = arg, value;
        bool has_value = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            has_value = true;
        }

        const FlagSpec *spec = nullptr;
        static const FlagSpec jobs_spec{"jobs", true, ""};
        if (key == "--jobs") {
            spec = &jobs_spec;
        } else {
            for (const FlagSpec &f : extras)
                if (key == "--" + f.name)
                    spec = &f;
        }
        if (!spec) {
            error = "unknown argument '" + arg +
                    "'\nvalid options:\n" + optionHelp(extras);
            return std::nullopt;
        }
        if (spec->takesValue && !has_value) {
            if (i + 1 >= argv.size()) {
                error = "--" + spec->name + " expects a value\n" +
                        "valid options:\n" + optionHelp(extras);
                return std::nullopt;
            }
            value = argv[++i];
        } else if (!spec->takesValue && has_value) {
            error = "--" + spec->name + " takes no value\n" +
                    "valid options:\n" + optionHelp(extras);
            return std::nullopt;
        }

        if (spec->name == "jobs") {
            if (!parseAll(value, args.jobs)) {
                error = "--jobs expects a non-negative integer, "
                        "got '" + value + "'";
                return std::nullopt;
            }
        } else {
            args.extra[spec->name] = value;
        }
    }
    return args;
}

/**
 * Parses harness arguments (--jobs / extras / --help); prints the
 * valid options and exits on errors, so every harness rejects
 * unknown flags the same way.
 */
inline BenchArgs
parseArgs(int argc, char **argv,
          const std::vector<FlagSpec> &extras = {})
{
    std::vector<std::string> in;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << argv[0] << " [options]\n"
                      << optionHelp(extras);
            std::exit(0);
        }
        in.push_back(std::move(arg));
    }
    std::string error;
    std::optional<BenchArgs> args =
        tryParseArgs(in, extras, error);
    if (!args) {
        std::cerr << "error: " << error << "\n";
        std::exit(2);
    }
    return *args;
}

/** The shared `--trace=` flag: every profile-replaying harness
 * accepts ingested `.tpcptrace` files in place of the synthetic
 * workload set. */
inline FlagSpec
traceFlag()
{
    return {"trace", true,
            "comma-separated .tpcptrace files to analyze instead "
            "of the 11 synthetic workloads"};
}

/** Splits @p csv on commas, skipping empty fields. */
inline std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::string field;
    for (char ch : csv) {
        if (ch == ',') {
            if (!field.empty())
                out.push_back(std::move(field));
            field.clear();
        } else {
            field += ch;
        }
    }
    if (!field.empty())
        out.push_back(std::move(field));
    return out;
}

/**
 * (workload name, profile) for every benchmark, in paper order.
 * Profiles are loaded (or simulated and cached) on @p jobs threads;
 * the result order never depends on the job count.
 */
inline std::vector<std::pair<std::string, trace::IntervalProfile>>
loadAllProfiles(const trace::ProfileOptions &opts = {},
                unsigned jobs = 1)
{
    const std::vector<std::string> &names =
        workload::workloadNames();
    std::cerr << "[profile] loading " << names.size()
              << " workload profiles ("
              << analysis::effectiveJobs(jobs, names.size())
              << " jobs) ...\n";
    auto loaded = analysis::runIndexed(
        names.size(), jobs, [&](std::size_t i) {
            return trace::getProfileByName(names[i], opts);
        });
    std::vector<std::pair<std::string, trace::IntervalProfile>> out;
    out.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::cerr << "[profile] " << names[i] << " ... "
                  << loaded[i].numIntervals() << " intervals\n";
        out.emplace_back(names[i], std::move(loaded[i]));
    }
    return out;
}

/**
 * Workload set for a parsed harness invocation: the trace files
 * named by `--trace=` when given (ingested via the content-hashed
 * trace cache, named by their embedded workload names), the full
 * synthetic benchmark set otherwise.
 */
inline std::vector<std::pair<std::string, trace::IntervalProfile>>
loadAllProfiles(const BenchArgs &args,
                const trace::ProfileOptions &opts = {})
{
    if (args.has("trace")) {
        std::vector<std::string> paths =
            splitCsv(args.get("trace", ""));
        if (paths.empty()) {
            std::cerr << "error: --trace expects at least one "
                         ".tpcptrace path\n";
            std::exit(2);
        }
        std::vector<std::pair<std::string, trace::IntervalProfile>>
            out;
        out.reserve(paths.size());
        for (const std::string &path : paths) {
            trace::IntervalProfile p = trace::getTraceProfile(path);
            std::cerr << "[trace] " << path << " -> "
                      << p.workload() << " ... "
                      << p.numIntervals() << " intervals\n";
            std::string name = p.workload();
            out.emplace_back(std::move(name), std::move(p));
        }
        return out;
    }
    return loadAllProfiles(opts, args.jobs);
}

/** Arithmetic mean of a vector (0 when empty). */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Prints the standard harness banner. */
inline void
banner(const std::string &figure, const std::string &what)
{
    std::cout
        << "=====================================================\n"
        << figure << ": " << what << "\n"
        << "(Lau, Schoenmackers, Calder - Transition Phase\n"
        << " Classification and Prediction, HPCA 2005)\n"
        << "=====================================================\n\n";
}

} // namespace tpcp::bench

#endif // TPCP_BENCH_BENCH_COMMON_HH
