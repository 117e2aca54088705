/**
 * @file
 * Sampled-simulation error sweep: budget x selector x workload.
 *
 * The payoff experiment for phase classification (SimPoint, ASPLOS
 * 2002; Ekman's two-phase stratified sampling): how close does a
 * whole-program CPI estimate get when only a handful of intervals
 * are detailed-simulated, and how much does picking those intervals
 * *by phase* beat picking them blindly? Phase-guided selectors
 * (first / centroid / stratified) should reach a few percent error
 * while simulating well under 10% of intervals, beating the
 * phase-blind uniform/random baselines at equal budget.
 *
 * Every report is also serialized to JSON (--json) so sweeps leave
 * a machine-readable trajectory.
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "sample/report.hh"
#include "sample/selector.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv,
        {{"budgets", "CSV",
          "comma-separated sample budgets (default 8,16,32,64)"},
         {"phase-source", "SRC",
          "phase stream: online | offline (default online)"},
         cli::jsonFlag("SampleReports", "samp_error.json"),
         cli::traceFlag()});
    std::vector<std::size_t> budgets;
    for (const std::string &b : args.getList("budgets", "8,16,32,64")) {
        budgets.push_back(cli::parseU64("budgets", b));
        if (budgets.back() == 0)
            cli::usageError("--budgets expects positive integers");
    }
    sample::PhaseSource source = sample::phaseSourceByName(
        args.get("phase-source", "online"));

    bench::banner("Sampled simulation error",
                  "whole-program CPI from a handful of detailed "
                  "intervals");
    auto profiles = analysis::loadWorkloads(args);
    const std::vector<std::string> &selectors =
        sample::selectorNames();

    // One parallel cell per workload: classify once, then sweep
    // selector x budget serially inside the cell.
    auto per_workload = analysis::runIndexed(
        profiles.size(), args.jobs, [&](std::size_t w) {
            const trace::IntervalProfile &profile =
                profiles[w].second;
            std::vector<PhaseId> phases =
                sample::phaseIdStream(profile, source);
            std::vector<sample::SampleReport> reports;
            for (std::size_t budget : budgets)
                for (const std::string &sel : selectors)
                    reports.push_back(
                        sample::runSampledSimulation(
                            profile, phases, sel, source, budget));
            return reports;
        });

    std::vector<sample::SampleReport> all;
    for (const auto &reports : per_workload)
        all.insert(all.end(), reports.begin(), reports.end());

    // Per-budget tables: CPI error per selector per workload.
    std::map<std::pair<std::string, std::size_t>,
             std::vector<double>> errors;
    for (std::size_t b = 0; b < budgets.size(); ++b) {
        std::vector<std::string> headers = {"workload", "sampled"};
        for (const std::string &sel : selectors)
            headers.push_back(sel + " err");
        AsciiTable table(std::move(headers));
        for (std::size_t w = 0; w < profiles.size(); ++w) {
            const sample::SampleReport &ref =
                per_workload[w][b * selectors.size()];
            auto row = &table.row()
                            .cell(profiles[w].first)
                            .percentCell(ref.sampledFraction());
            for (std::size_t s = 0; s < selectors.size(); ++s) {
                const sample::SampleReport &r =
                    per_workload[w][b * selectors.size() + s];
                row->percentCell(r.relError);
                errors[{selectors[s], budgets[b]}].push_back(
                    r.relError);
            }
        }
        std::cout << "Budget " << budgets[b]
                  << " detailed intervals per workload ("
                  << phaseSourceName(source) << " phases):\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    // Summary: average and worst error per (selector, budget).
    AsciiTable summary(
        {"selector", "budget", "avg err", "max err"});
    for (const std::string &sel : selectors) {
        for (std::size_t budget : budgets) {
            const std::vector<double> &errs =
                errors.at({sel, budget});
            summary.row()
                .cell(sel)
                .cell(static_cast<std::uint64_t>(budget))
                .percentCell(bench::mean(errs))
                .percentCell(*std::max_element(errs.begin(),
                                               errs.end()));
        }
    }
    summary.print(std::cout);

    // Acceptance check: at the largest budget, how many workloads
    // does each phase-guided selector estimate within 5% while
    // simulating <= 10% of intervals, and does it beat the random
    // baseline at equal budget?
    std::size_t top = budgets.back();
    std::cout << "\nAt budget " << top << ":\n";
    for (const std::string &sel : selectors) {
        if (sel == "uniform" || sel == "random")
            continue;
        unsigned hit = 0, beats = 0, eligible = 0;
        for (std::size_t w = 0; w < profiles.size(); ++w) {
            const auto &reports = per_workload[w];
            const sample::SampleReport *chosen = nullptr,
                                       *random = nullptr;
            for (const auto &r : reports) {
                if (r.budget != top)
                    continue;
                if (r.selector == sel)
                    chosen = &r;
                if (r.selector == "random")
                    random = &r;
            }
            if (chosen->sampledFraction() <= 0.10) {
                ++eligible;
                if (chosen->relError <= 0.05)
                    ++hit;
                if (chosen->relError <= random->relError)
                    ++beats;
            }
        }
        std::cout << "  " << sel << ": " << hit << "/" << eligible
                  << " workloads within 5% CPI error at <= 10% "
                     "intervals; beats random on " << beats << "/"
                  << eligible << "\n";
    }

    return cli::writeJson(args, sample::toJson(all),
                          std::to_string(all.size()) + " reports",
                          "samp_error.json", std::cerr, "[samp_error] ")
               ? 0
               : 1;
}
