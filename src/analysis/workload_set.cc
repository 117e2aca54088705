#include "analysis/workload_set.hh"

#include <iostream>

#include "trace/trace_file.hh"
#include "workload/workload.hh"

namespace tpcp::analysis
{

trace::IntervalProfile
WorkloadSet::profile(std::size_t i,
                     const trace::ProfileOptions &opts) const
{
    return traced.empty() ? trace::getProfileByName(names[i], opts)
                          : traced[i];
}

WorkloadSet
selectWorkloads(const cli::Args &args, bool one)
{
    WorkloadSet set;
    if (args.has("trace")) {
        if (!args.positional.empty())
            cli::usageError(
                "--trace and workload names are mutually exclusive");
        for (const std::string &path : args.getList("trace", "")) {
            trace::TraceData data = trace::readTrace(path);
            set.names.push_back(data.profile.workload());
            set.traced.push_back(std::move(data.profile));
        }
    } else if (!args.positional.empty()) {
        for (const std::string &name : args.positional)
            if (!workload::isWorkloadName(name))
                cli::usageError("unknown workload '" + name +
                                "'; run 'tpcp workloads'");
        set.names = args.positional;
    } else if (one) {
        cli::usageError("a workload name is required");
    } else {
        set.names = workload::workloadNames();
    }
    if (one && set.size() != 1)
        cli::usageError("this command takes one workload, not " +
                        std::to_string(set.size()));
    return set;
}

std::vector<NamedProfile>
loadWorkloads(const cli::Args &args, const trace::ProfileOptions &opts)
{
    WorkloadSet set = selectWorkloads(args);
    std::cerr << "[profile] loading " << set.size()
              << " workload profiles ("
              << effectiveJobs(args.jobs, set.size()) << " jobs) ...\n";
    std::vector<trace::IntervalProfile> loaded = std::move(set.traced);
    if (loaded.empty())
        loaded = runIndexed(set.size(), args.jobs, [&](std::size_t i) {
            return trace::getProfileByName(set.names[i], opts);
        });
    std::vector<NamedProfile> out;
    out.reserve(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
        std::cerr << "[profile] " << set.names[i] << " ... "
                  << loaded[i].numIntervals() << " intervals\n";
        out.emplace_back(set.names[i], std::move(loaded[i]));
    }
    return out;
}

} // namespace tpcp::analysis
