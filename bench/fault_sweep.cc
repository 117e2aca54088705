/**
 * @file
 * Fault-injection sweep: soft-error rate x targeted structure x
 * mitigation, across all 11 workloads. For each cell the harness
 * replays the workload through a fault-free and a faulted
 * PhaseTracker and reports phase-ID stream agreement plus predictor
 * accuracy deltas (see src/fault/resilience.hh).
 *
 * Every cell's fault stream is seeded from (seed, workload name), so
 * the sweep is byte-identical at any --jobs count — CI diffs the
 * --jobs=1 and --jobs=4 outputs.
 *
 * Options:
 *   --jobs=N      worker threads (0 = one per hardware thread)
 *   --rates=CSV   per-interval fault rates (default
 *                 0.001,0.01,0.05,0.2)
 *   --targets=CSV fault targets (default signature,change-table,all;
 *                 see `tpcp faults --target` for the full list)
 *   --seed=N      campaign seed (default 0x5eedfa17)
 *   --scrub-every=N  mitigated scrub period (default 1)
 *   --json=PATH   write every ResilienceReport as JSON ('-' disables)
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/status.hh"
#include "fault/resilience.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv,
        {{"rates", "CSV", "per-interval fault rates (CSV)"},
         {"targets", "CSV", "fault targets (CSV)"},
         {"seed", "N", "campaign seed"},
         {"scrub-every", "N", "mitigated scrub period (intervals)"},
         cli::jsonFlag("ResilienceReports", ""),
         cli::traceFlag()});

    std::vector<double> rates;
    for (const std::string &s :
         args.getList("rates", "0.001,0.01,0.05,0.2"))
        rates.push_back(cli::parseDouble("rates", s));
    std::vector<fault::Target> targets;
    std::vector<std::string> target_names =
        args.getList("targets", "signature,change-table,all");

    bench::banner("fault_sweep",
                  "soft-error resilience: rate x structure x "
                  "mitigation");

    int rc = 0;
    try {
        for (const std::string &t : target_names)
            targets.push_back(fault::targetByName(t));

        auto profiles = analysis::loadWorkloads(args);

        // Flattened deterministic grid: target-major, then rate,
        // then mitigation, then workload. Each cell is a pure
        // function of its inputs, so any job count gives the same
        // byte stream.
        struct Cell
        {
            std::size_t target, rate, workload;
            bool mitigated;
        };
        std::vector<Cell> cells;
        for (std::size_t t = 0; t < targets.size(); ++t)
            for (std::size_t r = 0; r < rates.size(); ++r)
                for (int m = 0; m < 2; ++m)
                    for (std::size_t w = 0; w < profiles.size(); ++w)
                        cells.push_back({t, r, w, m != 0});

        std::uint64_t seed = args.getU64("seed", 0x5eedfa17);
        unsigned scrub = static_cast<unsigned>(
            args.getU64("scrub-every", 1));
        std::vector<fault::ResilienceReport> reports =
            analysis::runIndexed(
                cells.size(), args.jobs, [&](std::size_t i) {
                    const Cell &c = cells[i];
                    fault::ResilienceOptions opts;
                    opts.injector.target = targets[c.target];
                    opts.injector.ratePerInterval = rates[c.rate];
                    opts.injector.mitigated = c.mitigated;
                    opts.injector.seed = seed;
                    opts.scrubEvery = scrub;
                    return fault::runResilience(
                        profiles[c.workload].second, opts);
                });

        // One row per (target, rate, mitigation): workload means.
        AsciiTable table({"target", "rate", "mitigated", "faults",
                          "agreement", "next-phase delta", "ecc",
                          "repairs"});
        for (std::size_t t = 0; t < targets.size(); ++t) {
            for (std::size_t r = 0; r < rates.size(); ++r) {
                for (int m = 0; m < 2; ++m) {
                    std::uint64_t faults = 0, repairs = 0;
                    std::uint64_t ecc = 0;
                    std::vector<double> agree, delta;
                    for (std::size_t i = 0; i < cells.size(); ++i) {
                        const Cell &c = cells[i];
                        if (c.target != t || c.rate != r ||
                            c.mitigated != (m != 0))
                            continue;
                        faults += reports[i].faults.total();
                        repairs += reports[i].repairs;
                        ecc += reports[i].eccCorrections;
                        agree.push_back(reports[i].agreement());
                        delta.push_back(
                            reports[i].nextPhaseDelta());
                    }
                    table.row()
                        .cell(fault::targetName(targets[t]))
                        .cell(rates[r], 4)
                        .cell(m ? "yes" : "no")
                        .cell(faults)
                        .percentCell(bench::mean(agree))
                        .percentCell(bench::mean(delta))
                        .cell(ecc)
                        .cell(repairs);
                }
            }
        }
        table.print(std::cout);

        if (!cli::writeJson(args, fault::toJson(reports),
                            std::to_string(reports.size()) + " reports"))
            return 1;
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        rc = 1;
    }
    return rc;
}
