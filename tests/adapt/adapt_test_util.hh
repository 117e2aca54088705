/**
 * @file
 * Shared synthetic fixtures for the reconfiguration tests: a tiny
 * lattice over Table 1 and per-config interval profiles whose CPIs
 * are planted per (phase, config), so controller and policy behavior
 * can be checked against hand-computed answers.
 */

#ifndef TPCP_TESTS_ADAPT_ADAPT_TEST_UTIL_HH
#define TPCP_TESTS_ADAPT_ADAPT_TEST_UTIL_HH

#include <vector>

#include "adapt/lattice.hh"
#include "common/types.hh"
#include "trace/interval_profile.hh"

namespace tpcp::adapt_test
{

/** One planted interval: its phase and its CPI on every config. */
struct Cell
{
    PhaseId phase;
    /** cpiPerConfig[c] = CPI of this interval on lattice point c. */
    std::vector<double> cpiPerConfig;
};

/**
 * Builds one profile per lattice point from @p cells, all over the
 * same interval grid. Intervals carry 100k instructions, like the
 * real profiles, so the default switch penalties keep their
 * real-run proportions.
 */
inline std::vector<trace::IntervalProfile>
makeLatticeProfiles(std::size_t num_configs,
                    const std::vector<Cell> &cells)
{
    std::vector<trace::IntervalProfile> profiles;
    for (std::size_t c = 0; c < num_configs; ++c) {
        trace::IntervalProfile p("synthetic", "simple", 100'000,
                                 {16});
        for (const Cell &cell : cells) {
            trace::IntervalRecord rec;
            rec.insts = 100'000;
            rec.cpi = cell.cpiPerConfig.at(c);
            rec.accumTotal = 1000;
            p.push(rec, std::vector<std::uint32_t>(16, 0));
        }
        profiles.push_back(std::move(p));
    }
    return profiles;
}

/** The phase-ID stream of @p cells. */
inline std::vector<PhaseId>
phasesOf(const std::vector<Cell> &cells)
{
    std::vector<PhaseId> out;
    out.reserve(cells.size());
    for (const Cell &c : cells)
        out.push_back(c.phase);
    return out;
}

/** @p n copies of @p cell. */
inline std::vector<Cell>
repeated(const Cell &cell, std::size_t n)
{
    return std::vector<Cell>(n, cell);
}

} // namespace tpcp::adapt_test

#endif // TPCP_TESTS_ADAPT_ADAPT_TEST_UTIL_HH
