/**
 * @file
 * Table 1: prints the baseline simulation model (the machine every
 * profile in this repository is collected on) and basic per-workload
 * simulation statistics from the cached profiles.
 */

#include <iostream>

#include "analysis/cov.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/running_stats.hh"
#include "uarch/machine_config.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv, {cli::traceFlag()});
    bench::banner("Table 1", "Baseline Simulation Model");
    std::cout << uarch::MachineConfig::table1().toString() << "\n";

    auto profiles = analysis::loadWorkloads(args);
    AsciiTable table({"workload", "intervals", "insts(M)", "avg CPI",
                      "min CPI", "max CPI", "whole-prog CoV"});
    for (const auto &[name, profile] : profiles) {
        RunningStats cpi;
        for (const auto &rec : profile.intervals())
            cpi.push(rec.cpi);
        table.row()
            .cell(name)
            .cell(static_cast<std::uint64_t>(profile.numIntervals()))
            .cell(static_cast<std::uint64_t>(
                profile.numIntervals() * profile.intervalLength() /
                1'000'000))
            .cell(cpi.mean(), 3)
            .cell(cpi.min(), 3)
            .cell(cpi.max(), 3)
            .percentCell(cpi.cov());
    }
    table.print(std::cout);
    return 0;
}
