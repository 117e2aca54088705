#include "uarch/stats_report.hh"

#include <sstream>

#include "common/ascii_table.hh"

namespace tpcp::uarch
{

AccessCounts
collectAccessCounts(const TimingCore &core)
{
    AccessCounts counts;
    counts.cycles = core.cycles();
    counts.insts = core.stats().insts;
    const CacheHierarchy &h = core.memoryHierarchy();
    counts.icacheAccesses = h.icache().stats().accesses;
    counts.dcacheAccesses = h.dcache().stats().accesses;
    counts.l2Accesses = h.l2cache().stats().accesses;
    counts.itlbAccesses = h.itlb().stats().accesses;
    counts.dtlbAccesses = h.dtlb().stats().accesses;
    return counts;
}

std::string
formatCoreStats(const TimingCore &core)
{
    std::ostringstream oss;
    const CoreStats &s = core.stats();
    AsciiTable table({"stat", "value"});
    table.row().cell("core").cell(core.name());
    table.row().cell("instructions").cell(s.insts);
    table.row().cell("cycles").cell(
        static_cast<std::uint64_t>(core.cycles()));
    table.row().cell("CPI").cell(s.cpi(core.cycles()), 3);
    table.row().cell("loads").cell(s.loads);
    table.row().cell("stores").cell(s.stores);
    table.row().cell("cond. branches").cell(s.branches);
    table.row().cell("branch mispredicts").cell(s.branchMispredicts);
    if (s.branches) {
        table.row().cell("mispredict rate").percentCell(
            static_cast<double>(s.branchMispredicts) /
            static_cast<double>(s.branches));
    }

    auto cache_rows = [&](const Cache &c) {
        table.row().cell(c.name() + " accesses").cell(c.stats().accesses);
        table.row()
            .cell(c.name() + " miss rate")
            .percentCell(c.stats().missRate());
    };
    const CacheHierarchy &h = core.memoryHierarchy();
    cache_rows(h.icache());
    cache_rows(h.dcache());
    cache_rows(h.l2cache());
    table.row()
        .cell("dcache writebacks")
        .cell(h.dcache().stats().writebacks);
    table.row().cell("itlb accesses").cell(h.itlb().stats().accesses);
    table.row()
        .cell("itlb miss rate")
        .percentCell(h.itlb().stats().missRate());
    table.row().cell("dtlb accesses").cell(h.dtlb().stats().accesses);
    table.row()
        .cell("dtlb miss rate")
        .percentCell(h.dtlb().stats().missRate());
    table.print(oss);
    return oss.str();
}

} // namespace tpcp::uarch
