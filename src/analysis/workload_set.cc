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
    const bool traced = args.has("trace");
    if (traced && !args.positional.empty())
        cli::usageError("--trace and workload names are mutually exclusive");
    const std::vector<std::string> named =
        traced ? args.getList("trace", "") : args.positional;
    // The count is checked before any trace file is read.
    if (one && named.size() != 1)
        cli::usageError(named.empty()
                            ? std::string("a workload name is required")
                            : "this command takes one workload, not " +
                                  std::to_string(named.size()));
    WorkloadSet set;
    if (traced) {
        for (const std::string &path : named) {
            trace::TraceData data = trace::readTrace(path);
            set.names.push_back(data.profile.workload());
            set.traced.push_back(std::move(data.profile));
            set.sources.push_back(std::move(data.source));
        }
    } else if (!named.empty()) {
        for (const std::string &name : named)
            if (!workload::isWorkloadName(name))
                cli::usageError("unknown workload '" + name +
                                "'; run 'tpcp workloads'");
        set.names = named;
    } else {
        set.names = workload::workloadNames();
    }
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
