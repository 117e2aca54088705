#include "phase/accumulator_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpcp::phase
{

AccumulatorTable::AccumulatorTable(unsigned num_counters)
    : numCtrs(num_counters), usePow2Mask(isPowerOf2(num_counters)),
      ctrs(num_counters, 0)
{
    tpcp_assert(num_counters >= 1);
}

void
AccumulatorTable::reset()
{
    std::fill(ctrs.begin(), ctrs.end(), 0);
    total = 0;
}

} // namespace tpcp::phase
