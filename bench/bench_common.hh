/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses. Every fig*_
 * binary prints the rows/series of one paper figure.
 *
 * All harnesses parse their flags through common/cli.hh (unknown
 * flags exit 2) and accept `--jobs=N` (or `--jobs N`): profile
 * loading and the experiment grid fan out over N threads (0 or
 * omitted = one per hardware thread, 1 = the plain serial loop).
 * Output is bit-identical for every job count — results come back in
 * grid order and each cell is a pure function of its inputs. The
 * harnesses that replay profiles take their workload set from
 * analysis/workload_set.hh: the 11 synthetic workloads, or the
 * `.tpcptrace` files of --trace.
 */

#ifndef TPCP_BENCH_BENCH_COMMON_HH
#define TPCP_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "analysis/workload_set.hh"
#include "common/cli.hh"

namespace tpcp::bench
{

/** Arithmetic mean of a vector (0 when empty). */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Prints the standard harness banner. */
inline void
banner(const std::string &figure, const std::string &what)
{
    std::cout
        << "=====================================================\n"
        << figure << ": " << what << "\n"
        << "(Lau, Schoenmackers, Calder - Transition Phase\n"
        << " Classification and Prediction, HPCA 2005)\n"
        << "=====================================================\n\n";
}

} // namespace tpcp::bench

#endif // TPCP_BENCH_BENCH_COMMON_HH
