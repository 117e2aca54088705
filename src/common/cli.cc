#include "common/cli.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/parse.hh"
#include "common/status.hh"

namespace tpcp::cli
{

namespace
{

/** The option listing printed by --help and on errors. */
std::string
optionHelp(const std::vector<FlagSpec> &flags)
{
    std::string out;
    for (const FlagSpec &f : flags) {
        out += "  --" + f.name + (f.value.empty() ? "" : "=" + f.value) +
               "  " + f.help + "\n";
    }
    return out;
}

} // namespace

void
usageError(const std::string &message)
{
    std::cerr << "error: " << message << "\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &name, const std::string &text,
         std::uint64_t max)
{
    std::uint64_t value = 0;
    if (!parseAll(text, value) || value > max) {
        usageError("--" + name + " wants a non-negative integer" +
                   (max == std::numeric_limits<std::uint64_t>::max()
                        ? ""
                        : " up to " + std::to_string(max)) +
                   ", got '" + text + "'");
    }
    return value;
}

double
parseDouble(const std::string &name, const std::string &text)
{
    double value = 0.0;
    if (!parseAll(text, value))
        usageError("--" + name + " wants a finite number, got '" +
                   text + "'");
    return value;
}

std::string
Args::get(const std::string &name, const std::string &dflt) const
{
    auto it = values.find(name);
    return it == values.end() ? dflt : it->second;
}

std::uint64_t
Args::getU64(const std::string &name, std::uint64_t dflt,
             std::uint64_t max) const
{
    auto it = values.find(name);
    return it == values.end() ? dflt : parseU64(name, it->second, max);
}

double
Args::getDouble(const std::string &name, double dflt) const
{
    auto it = values.find(name);
    return it == values.end() ? dflt : parseDouble(name, it->second);
}

std::vector<std::string>
Args::getList(const std::string &name, const std::string &dflt) const
{
    std::vector<std::string> fields = splitCsv(get(name, dflt));
    if (fields.empty())
        usageError("--" + name + " expects at least one value");
    return fields;
}

FlagSpec
jobsFlag()
{
    return {"jobs", "N",
            "worker threads (0 = one per hardware thread, 1 = "
            "serial; at most " + std::to_string(kMaxThreads) + ")"};
}

FlagSpec
traceFlag()
{
    return {"trace", "CSV",
            "comma-separated .tpcptrace files to analyze instead "
            "of named workloads"};
}

FlagSpec
jsonFlag(const std::string &what, const std::string &dflt)
{
    return {"json", "PATH",
            "write " + what + " as JSON (" +
                (dflt.empty() ? "" : "default " + dflt + "; ") +
                "'-' disables)"};
}

std::optional<Args>
tryParseArgs(const std::vector<std::string> &argv,
             const std::vector<FlagSpec> &flags, std::string &error,
             std::size_t max_positional)
{
    const std::string listing = "valid options:\n" + optionHelp(flags);
    Args args;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (args.positional.size() == max_positional) {
                error = "unknown argument '" + arg + "'\n" + listing;
                return std::nullopt;
            }
            args.positional.push_back(arg);
            continue;
        }
        std::string key = arg.substr(2), value;
        const auto eq = key.find('=');
        const bool has_value = eq != std::string::npos;
        if (has_value) {
            value = key.substr(eq + 1);
            key.resize(eq);
        }

        const FlagSpec *spec = nullptr;
        for (const FlagSpec &f : flags)
            if (key == f.name)
                spec = &f;
        if (!spec) {
            error = "unknown argument '" + arg + "'\n" + listing;
            return std::nullopt;
        }
        if (!spec->value.empty() && !has_value) {
            if (i + 1 >= argv.size()) {
                error = "--" + key + " expects a value\n" + listing;
                return std::nullopt;
            }
            value = argv[++i];
        } else if (spec->value.empty() && has_value) {
            error = "--" + key + " takes no value\n" + listing;
            return std::nullopt;
        }

        if (key == "jobs" &&
            (!parseAll(value, args.jobs) || args.jobs > kMaxThreads)) {
            error = "--jobs expects a non-negative integer up to " +
                    std::to_string(kMaxThreads) + ", got '" + value +
                    "'";
            return std::nullopt;
        }
        args.values[key] = value;
    }
    return args;
}

Args
parseArgs(const std::vector<std::string> &argv,
          const std::vector<FlagSpec> &flags, const std::string &usage,
          std::size_t max_positional)
{
    for (const std::string &arg : argv) {
        if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << usage << " [options]\n"
                      << optionHelp(flags);
            std::exit(0);
        }
    }
    std::string error;
    std::optional<Args> args =
        tryParseArgs(argv, flags, error, max_positional);
    if (!args)
        usageError(error);
    return *args;
}

Args
parseArgs(int argc, char **argv, const std::vector<FlagSpec> &flags)
{
    std::vector<FlagSpec> all = {jobsFlag()};
    all.insert(all.end(), flags.begin(), flags.end());
    return parseArgs(std::vector<std::string>(argv + 1, argv + argc),
                     all, argv[0]);
}

std::vector<std::string>
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

bool
writeJson(const Args &args, const std::string &json,
          const std::string &what, const std::string &dflt,
          std::ostream &log, const char *lead)
{
    const std::string path = args.get("json", dflt);
    if (path.empty() || path == "-")
        return true;
    if (!writeJsonFile(path, json)) {
        std::cerr << "error: cannot write " << path << "\n";
        return false;
    }
    log << lead << "wrote " << (what.empty() ? "" : what + " to ")
        << path << "\n";
    return true;
}

std::map<std::string, std::vector<double>>
readFloors(const std::string &path, std::size_t columns)
{
    std::ifstream in(path);
    if (!in)
        tpcp_raise("cannot read floors file ", path);
    std::map<std::string, std::vector<double>> floors;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, field;
        ls >> key;
        std::vector<double> values;
        bool ok = true;
        while (ok && ls >> field)
            ok = parseAll(field, values.emplace_back());
        if (!ok || values.size() != columns)
            tpcp_raise("floors file ", path, ": malformed line '", line,
                       "' (want: key and ", columns, " numbers)");
        if (!floors.emplace(key, std::move(values)).second)
            tpcp_raise("floors file ", path, ": '", key,
                       "' is given twice");
    }
    return floors;
}

bool
checkBound(const Args &args, const Bound &bound, double value)
{
    if (!args.has(bound.flag))
        return true;
    const double limit = args.getDouble(bound.flag, 0.0);
    const bool ok = bound.upper ? !(value > limit) : !(value < limit);
    const char *verb = bound.upper ? (ok ? "within" : "exceeds")
                                   : (ok ? "meets" : "below");
    (ok ? std::cout : std::cerr)
        << (ok ? "" : "error: ") << bound.what << " "
        << value * bound.scale << bound.unit << " " << verb << " --"
        << bound.flag << " " << limit * bound.scale << bound.limitUnit
        << "\n";
    return ok;
}

} // namespace tpcp::cli
