/**
 * @file
 * Shared synthetic-profile builder for the sampling-subsystem tests:
 * a profile whose per-interval phase IDs, CPIs, instruction counts
 * and accumulator signatures are all planted, so selector and
 * estimator behavior can be checked against hand-computed answers.
 */

#ifndef TPCP_TESTS_SAMPLE_SAMPLE_TEST_UTIL_HH
#define TPCP_TESTS_SAMPLE_SAMPLE_TEST_UTIL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/interval_profile.hh"

namespace tpcp::sample_test
{

/** One planted interval. */
struct Cell
{
    PhaseId phase;
    double cpi;
    InstCount insts = 1000;
    /** Optional signature knob: the fraction of accumulator mass in
     * the phase's second bucket (varies the normalized vector within
     * a phase so centroid selection has something to choose on). */
    double skew = 0.5;
};

/**
 * Builds a 16-dim profile from @p cells. Each phase owns two
 * accumulator buckets (phase-dependent positions), and @p skew
 * splits the interval's accumulator mass between them — intervals of
 * the same phase with equal skew have identical normalized
 * signatures.
 */
inline trace::IntervalProfile
makeProfile(const std::vector<Cell> &cells)
{
    trace::IntervalProfile p("synthetic", "ooo", 1000, {16});
    for (const Cell &c : cells) {
        trace::IntervalRecord rec;
        rec.insts = c.insts;
        rec.cpi = c.cpi;
        std::vector<std::uint32_t> raw(16, 0);
        unsigned base = (static_cast<unsigned>(c.phase) % 7) * 2;
        auto total = std::uint32_t{1000};
        auto hi = static_cast<std::uint32_t>(
            c.skew * static_cast<double>(total));
        raw[base] = total - hi;
        raw[base + 1] = hi;
        rec.accumTotal = total;
        p.push(rec, raw);
    }
    return p;
}

/** The phase-ID stream of @p cells (what makeProfile planted). */
inline std::vector<PhaseId>
phasesOf(const std::vector<Cell> &cells)
{
    std::vector<PhaseId> out;
    out.reserve(cells.size());
    for (const Cell &c : cells)
        out.push_back(c.phase);
    return out;
}

/** Instruction-weighted CPI of @p cells — the ground truth an
 * estimator should recover. */
inline double
trueCpiOf(const std::vector<Cell> &cells)
{
    double cycles = 0.0, insts = 0.0;
    for (const Cell &c : cells) {
        cycles += c.cpi * static_cast<double>(c.insts);
        insts += static_cast<double>(c.insts);
    }
    return insts > 0.0 ? cycles / insts : 0.0;
}

} // namespace tpcp::sample_test

#endif // TPCP_TESTS_SAMPLE_SAMPLE_TEST_UTIL_HH
