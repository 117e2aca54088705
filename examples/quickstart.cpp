/**
 * @file
 * Quickstart: simulate one synthetic workload on the Table-1 machine,
 * classify its execution into phases with the paper's preferred
 * configuration, and print a phase timeline plus summary metrics.
 *
 * Usage: quickstart [workload] [interval-insts]
 *   workload       one of the 11 names (default: gzip/p)
 *   interval-insts instructions per interval (default: 100000)
 */

#include <iostream>
#include <string>

#include "analysis/experiment.hh"
#include "common/ascii_table.hh"
#include "common/parse.hh"
#include "phase/classifier_config.hh"
#include "phase/phase_trace.hh"
#include "trace/profile_cache.hh"
#include "workload/workload.hh"

using namespace tpcp;

namespace
{

/** Renders a phase ID as a single character for the timeline. */
char
phaseChar(PhaseId id)
{
    if (id == transitionPhaseId)
        return '.';
    static const char glyphs[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    return glyphs[(id - 1) % (sizeof(glyphs) - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "gzip/p";
    InstCount interval = 100'000;
    if (argc > 2 && (!parseAll(argv[2], interval) || interval == 0)) {
        std::cerr << "error: interval-insts wants a positive integer, "
                     "got '"
                  << argv[2] << "'\n";
        return 2;
    }

    if (!workload::isWorkloadName(name)) {
        std::cerr << "unknown workload '" << name << "'; choose one of:";
        for (const auto &n : workload::workloadNames())
            std::cerr << " " << n;
        std::cerr << "\n";
        return 1;
    }

    std::cout << "== tpcp quickstart ==\n";
    std::cout << "workload: " << name << ", interval: " << interval
              << " instructions\n";

    workload::Workload w = workload::makeWorkload(name);
    std::cout << "program: " << w.program.blocks.size()
              << " basic blocks, " << w.program.regions.size()
              << " regions, " << w.totalInsts() / 1'000'000
              << "M scheduled instructions\n";
    std::cout << "simulating (cached after the first run)...\n";

    trace::ProfileOptions opts;
    opts.intervalLen = interval;
    trace::IntervalProfile profile = trace::getProfile(w, opts);
    std::cout << "profiled " << profile.numIntervals()
              << " intervals on the '" << profile.coreName()
              << "' core\n\n";

    phase::ClassifierConfig cfg =
        phase::ClassifierConfig::paperDefault();
    analysis::ClassificationResult res =
        analysis::classifyProfile(profile, cfg);

    std::cout << "phase timeline ('.' = transition phase, one char "
                 "per interval,\nwrapped at 80):\n";
    const auto &ids = res.trace.phases;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        std::cout << phaseChar(ids[i]);
        if ((i + 1) % 80 == 0)
            std::cout << '\n';
    }
    std::cout << "\n\n";

    AsciiTable table({"metric", "value"});
    table.row().cell("stable phases detected")
        .cell(static_cast<std::uint64_t>(res.numPhases));
    table.row().cell("per-phase CPI CoV").percentCell(res.covCpi);
    table.row().cell("whole-program CPI CoV")
        .percentCell(res.wholeProgramCov);
    table.row().cell("time in transition phase")
        .percentCell(res.transitionFraction);
    table.row().cell("avg stable run (intervals)")
        .cell(res.runLengths.stableAvg, 1);
    table.row().cell("avg transition run (intervals)")
        .cell(res.runLengths.transitionAvg, 1);
    table.print(std::cout);
    return 0;
}
