/**
 * @file
 * The command line of the `tpcp` tool and of every bench harness.
 *
 * Each front end declares the flags it reads. An undeclared flag, a
 * missing value, a value on a switch, a positional argument beyond
 * the declared count or a malformed number prints "error: ..." and
 * exits 2, so a typo such as --max-eror=0.01 fails instead of
 * quietly switching a check off. --help (or -h) prints the declared
 * flags and exits 0.
 *
 * A flag takes its value as --name=V or --name V. A switch (a flag
 * declared without a value) never takes the next argument, so it may
 * come before a positional argument: `classify --timeline mcf`.
 */

#ifndef TPCP_COMMON_CLI_HH
#define TPCP_COMMON_CLI_HH

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tpcp::cli
{

/** Upper bound on every flag that starts threads (--jobs, and
 * `tpcp serve --producers`). */
constexpr unsigned kMaxThreads = 256;

/** A flag a front end accepts. */
struct FlagSpec
{
    /** Flag name without the leading "--". */
    std::string name;
    /** What the value is, as --help shows it ("N", "PATH", ...);
     * empty for a switch, which takes no value. */
    std::string value;
    /** One-line description shown by --help and on errors. */
    std::string help;
};

/** Prints "error: @p message" and exits 2 (a usage error). */
[[noreturn]] void usageError(const std::string &message);

/** The value @p text of flag --@p name, which must be a
 * non-negative integer no larger than @p max; a usage error
 * otherwise. */
std::uint64_t
parseU64(const std::string &name, const std::string &text,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** The value @p text of flag --@p name as a finite number; a usage
 * error otherwise. */
double parseDouble(const std::string &name, const std::string &text);

/** A parsed command line. */
struct Args
{
    /** --jobs: worker threads, 0 = one per hardware thread, 1 =
     * serial; at most kMaxThreads. */
    unsigned jobs = 0;
    /** Values of the given flags, keyed by name (switches map to
     * ""). */
    std::map<std::string, std::string> values;
    /** Positional arguments, in order. */
    std::vector<std::string> positional;

    bool has(const std::string &name) const
    {
        return values.count(name) != 0;
    }

    std::string get(const std::string &name,
                    const std::string &dflt) const;

    /** The flag's value as a whole number in [0, @p max]; a usage
     * error on anything else. */
    std::uint64_t
    getU64(const std::string &name, std::uint64_t dflt,
           std::uint64_t max =
               std::numeric_limits<std::uint64_t>::max()) const;

    /** getU64() for flags held in an unsigned. */
    unsigned
    getUnsigned(const std::string &name, unsigned dflt,
                unsigned max =
                    std::numeric_limits<unsigned>::max()) const
    {
        return static_cast<unsigned>(getU64(name, dflt, max));
    }

    /** The flag's value as a finite number; a usage error on
     * anything else. */
    double getDouble(const std::string &name, double dflt) const;

    /** The non-empty fields of CSV flag --@p name (of @p dflt when
     * the flag is absent); a usage error naming the flag when there
     * are none, so an empty list never runs an empty sweep. */
    std::vector<std::string> getList(const std::string &name,
                                     const std::string &dflt) const;
};

/** --jobs=N, bounded by kMaxThreads. */
FlagSpec jobsFlag();

/** --trace=CSV: ingested `.tpcptrace` files in place of workloads
 * (see analysis/workload_set.hh). */
FlagSpec traceFlag();

/** --json=PATH, writing @p what; @p dflt is the path used when the
 * flag is absent (empty: no file). */
FlagSpec jsonFlag(const std::string &what, const std::string &dflt);

/**
 * Parses @p argv against @p flags, accepting at most
 * @p max_positional positional arguments. std::nullopt with the
 * reason (and the option listing) in @p error on any usage error.
 */
std::optional<Args> tryParseArgs(const std::vector<std::string> &argv,
                                 const std::vector<FlagSpec> &flags,
                                 std::string &error,
                                 std::size_t max_positional = 0);

/** tryParseArgs() for a front end: --help prints "usage: @p usage
 * [options]" and the flags, then exits 0; an error exits 2. */
Args parseArgs(const std::vector<std::string> &argv,
               const std::vector<FlagSpec> &flags,
               const std::string &usage,
               std::size_t max_positional = 0);

/** A bench harness's command line: --jobs plus @p flags, no
 * positional arguments. */
Args parseArgs(int argc, char **argv,
               const std::vector<FlagSpec> &flags = {});

/** Splits @p csv on commas, skipping empty fields. */
std::vector<std::string> splitCsv(const std::string &csv);

/**
 * The --json writer. The path is --json's value, or @p dflt when the
 * flag is absent; an empty path or "-" writes nothing. Otherwise
 * writes @p json there and prints "@p lead wrote @p what to PATH" on
 * @p log ("wrote PATH" when @p what is empty). False, after printing
 * the error, when the file cannot be written.
 */
bool writeJson(const Args &args, const std::string &json,
               const std::string &what, const std::string &dflt = "",
               std::ostream &log = std::cout, const char *lead = "");

/**
 * A tripwire's floor file: one `key value...` line per key with
 * exactly @p columns numbers after the key; blank lines and lines
 * starting with '#' are skipped. Raises tpcp::Error when the file
 * cannot be read, a line has another field count or a malformed
 * number, or a key is given twice.
 */
std::map<std::string, std::vector<double>>
readFloors(const std::string &path, std::size_t columns);

/** A tripwire flag such as --max-error=X. */
struct Bound
{
    /** Flag name without the leading "--". */
    const char *flag;
    /** What the checked value is, e.g. "worst CPI error". */
    const char *what;
    /** True: the value must not exceed X; false: not fall below. */
    bool upper = false;
    /** Both numbers print multiplied by this... */
    double scale = 100.0;
    /** ...with this after the value... */
    const char *unit = "%";
    /** ...and this after the limit. */
    const char *limitUnit = "%";
};

/**
 * Checks @p value against @p bound's flag, when given: prints
 * "<what> V meets --flag X" (or "within" for an upper bound) and
 * returns true, or prints "error: <what> V below --flag X" (or
 * "exceeds") and returns false. True when the flag is absent.
 */
bool checkBound(const Args &args, const Bound &bound, double value);

} // namespace tpcp::cli

#endif // TPCP_COMMON_CLI_HH
