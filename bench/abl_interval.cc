/**
 * @file
 * Interval-length sensitivity (paper section 3 calls the minimum
 * interval size that still supports code-based classification "an
 * interesting open question" and cites that the technique works from
 * 1M to 100M instructions). We sweep the repository-scale interval
 * length over 50K / 100K / 200K instructions on four representative
 * workloads (the others behave alike) and report CoV, phase counts
 * and transition time.
 *
 * The 50K and 200K profiles are simulated on first run and cached
 * like all others.
 */

#include <iostream>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(argc, argv);
    bench::banner("Ablation", "Interval-length sensitivity");

    const char *names[] = {"ammp", "gcc/s", "gzip/p", "mcf"};
    const InstCount lengths[] = {50'000, 100'000, 200'000};
    constexpr std::size_t num_lengths = 3;

    // Each cell varies the *profile* (interval length), not just the
    // classifier config, so fan the whole (workload x length) space
    // out with runIndexed; the profile cache serializes duplicate
    // builds per path and profiles of different lengths build in
    // parallel.
    auto results = analysis::runIndexed(
        4 * num_lengths, args.jobs, [&](std::size_t i) {
            trace::ProfileOptions opts;
            opts.intervalLen = lengths[i % num_lengths];
            trace::IntervalProfile profile =
                trace::getProfileByName(names[i / num_lengths],
                                        opts);
            return analysis::classifyProfile(
                profile, phase::ClassifierConfig::paperDefault());
        });

    AsciiTable cov({"workload", "50K CoV", "100K CoV", "200K CoV"});
    AsciiTable phases({"workload", "50K", "100K", "200K"});
    AsciiTable trans({"workload", "50K trans", "100K trans",
                      "200K trans"});

    for (std::size_t w = 0; w < 4; ++w) {
        cov.row().cell(names[w]);
        phases.row().cell(names[w]);
        trans.row().cell(names[w]);
        for (std::size_t l = 0; l < num_lengths; ++l) {
            const analysis::ClassificationResult &res =
                results[w * num_lengths + l];
            cov.percentCell(res.covCpi);
            phases.cell(static_cast<std::uint64_t>(res.numPhases));
            trans.percentCell(res.transitionFraction);
        }
    }

    std::cout << "CPI CoV by interval length:\n";
    cov.print(std::cout);
    std::cout << "\nStable phase IDs:\n";
    phases.print(std::cout);
    std::cout << "\nTransition time:\n";
    trans.print(std::cout);
    std::cout << "\nExpected behavior: code-based classification is "
                 "granularity-robust\n(paper section 3 / [21]): CoV "
                 "stays in the same band across a 4x interval\n"
                 "range. The limits show at the edges - finer "
                 "intervals resolve more\n(sub)phases, while "
                 "intervals large relative to the phase dwells blur\n"
                 "short phases into transitions (gcc at 200K).\n";
    return 0;
}
