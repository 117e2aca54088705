/**
 * @file
 * Online vs offline classification (paper sections 4.4 and 7): the
 * paper argues its online classifier's CPI CoV and phase counts are
 * "comparable to the results of the offline phase classification
 * algorithm used in SimPoint". This harness checks that claim
 * directly against our SimPoint-style k-means comparator.
 *
 * Note the offline algorithm sees all intervals at once (and is not
 * implementable in hardware); the online classifier sees each
 * interval once with 32 entries of state. Comparable quality is the
 * headline result.
 */

#include <iostream>

#include "analysis/cov.hh"
#include "analysis/experiment.hh"
#include "analysis/offline_kmeans.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"

using namespace tpcp;

namespace
{

/** Everything one table row needs; computed per workload cell. */
struct OfflineRow
{
    analysis::ClassificationResult onlineStatic;
    analysis::ClassificationResult online;
    double offCov = 0.0;
    unsigned offK = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv, {cli::traceFlag()});
    bench::banner("Online vs offline (SimPoint-style) classification",
                  "CPI CoV and phase counts");
    auto profiles = analysis::loadWorkloads(args);

    auto rows = analysis::runIndexed(
        profiles.size(), args.jobs, [&](std::size_t w) {
            const trace::IntervalProfile &profile =
                profiles[w].second;
            OfflineRow row;
            // The configuration the paper compares against SimPoint
            // (section 4.4): static 25% threshold, min count 8.
            phase::ClassifierConfig static_cfg;
            static_cfg.numCounters = 16;
            static_cfg.tableEntries = 32;
            static_cfg.similarityThreshold = 0.25;
            static_cfg.minCountThreshold = 8;
            row.onlineStatic =
                analysis::classifyProfile(profile, static_cfg);
            row.online = analysis::classifyProfile(
                profile, phase::ClassifierConfig::paperDefault());

            analysis::OfflineConfig ocfg;
            ocfg.maxK = 40;
            ocfg.explainedVariance = 0.98;
            analysis::OfflineResult offline =
                analysis::classifyOffline(profile, ocfg);
            // Offline cluster IDs start at 0; shift by 1 so no
            // cluster collides with the transition-phase ID in the
            // CoV metric.
            std::vector<PhaseId> ids;
            ids.reserve(offline.assignments.size());
            for (auto a : offline.assignments)
                ids.push_back(a + 1);
            row.offCov =
                analysis::weightedPhaseCov(ids, profile.cpis());
            row.offK = offline.k;
            return row;
        });

    AsciiTable table({"workload", "online 25% CoV",
                      "online adaptive CoV", "offline CoV",
                      "online phases", "offline k"});
    std::vector<double> on_static_cov, on_cov, off_cov;
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        const analysis::ClassificationResult &online_static =
            rows[w].onlineStatic;
        const analysis::ClassificationResult &online =
            rows[w].online;
        double off = rows[w].offCov;

        table.row()
            .cell(profiles[w].first)
            .percentCell(online_static.covCpi)
            .percentCell(online.covCpi)
            .percentCell(off)
            .cell(static_cast<std::uint64_t>(online.numPhases))
            .cell(static_cast<std::uint64_t>(rows[w].offK));
        on_static_cov.push_back(online_static.covCpi);
        on_cov.push_back(online.covCpi);
        off_cov.push_back(off);
    }
    table.row()
        .cell("avg")
        .percentCell(bench::mean(on_static_cov))
        .percentCell(bench::mean(on_cov))
        .percentCell(bench::mean(off_cov))
        .cell("")
        .cell("");
    table.print(std::cout);
    std::cout << "\nPaper claim (4.4/7): the online 25% classifier's "
                 "quality is comparable to\nthe offline SimPoint-"
                 "style clustering, despite 32 entries of state and "
                 "one\npass. The adaptive column shows this paper's "
                 "CPI-feedback splitting going\nbeyond what offline "
                 "code-signature clustering can see.\n";
    return 0;
}
