#include "uarch/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpcp::uarch
{

OooCore::OooCore(const MachineConfig &config)
    : TimingCore(config), regReady(isa::numArchRegs, 0),
      robCommit(config.core.robEntries, 0),
      lsqComplete(config.core.lsqEntries, 0)
{
    const CoreConfig &c = config.core;
    tpcp_assert(c.robEntries > 0 && c.lsqEntries > 0);
    tpcp_assert(c.fetchWidth > 0 && c.issueWidth > 0 &&
                c.commitWidth > 0);
    auto fu_of = [](isa::FuClass f) {
        return static_cast<std::size_t>(f);
    };
    fuFree[fu_of(isa::FuClass::IntAlu)].resize(c.intAluUnits, 0);
    fuFree[fu_of(isa::FuClass::LoadStore)].resize(c.loadStoreUnits, 0);
    fuFree[fu_of(isa::FuClass::FpAdd)].resize(c.fpAddUnits, 0);
    fuFree[fu_of(isa::FuClass::IntMultDiv)].resize(c.intMultDivUnits,
                                                   0);
    fuFree[fu_of(isa::FuClass::FpMultDiv)].resize(c.fpMultDivUnits, 0);
}

Cycles
OooCore::allocFu(isa::FuClass fu, Cycles ready, Cycles occupancy)
{
    if (fu == isa::FuClass::None)
        return ready;
    auto &units = fuFree[static_cast<std::size_t>(fu)];
    tpcp_assert(!units.empty(), "no units for fu class");
    auto it = std::min_element(units.begin(), units.end());
    Cycles issue = std::max(ready, *it);
    *it = issue + occupancy;
    return issue;
}

/**
 * Out of line and cache-line aligned, like ExecEngine::next and
 * Cache::access, the other hot spots of cold simulation: their code
 * sits at the same offset whatever the linker places ahead of uarch.
 */
__attribute__((noinline, aligned(64))) void
OooCore::consume(const DynInst &inst)
{
    const CoreConfig &cc = config.core;
    const isa::OpTraits traits = inst.staticInst->traits();
    ++stats_.insts;

    // ---- Fetch ----
    if (Cycles stall = fetchLineStall(inst.pc)) {
        // Fetch bubbles for the beyond-L1 portion of the access.
        fetchCycle += stall;
        fetchedThisCycle = 0;
    }

    // ROB occupancy: fetch of instruction i stalls until instruction
    // i - robEntries has committed and freed its entry.
    if (fetchCycle < robCommit[robSlot]) {
        fetchCycle = robCommit[robSlot];
        fetchedThisCycle = 0;
    }

    if (fetchedThisCycle >= cc.fetchWidth) {
        ++fetchCycle;
        fetchedThisCycle = 0;
    }
    Cycles fetch = fetchCycle;
    ++fetchedThisCycle;

    Cycles dispatch = fetch + cc.frontendDepth;

    // ---- Register dependences ----
    Cycles ready = dispatch;
    const isa::Inst &si = *inst.staticInst;
    if (si.src1 != isa::noReg)
        ready = std::max(ready, regReady[si.src1]);
    if (si.src2 != isa::noReg)
        ready = std::max(ready, regReady[si.src2]);

    // ---- LSQ occupancy for memory ops ----
    if (inst.isMem())
        ready = std::max(ready, lsqComplete[lsqSlot]);

    // ---- Issue to a functional unit ----
    // Divides occupy their unit for the full latency (unpipelined);
    // all other ops are fully pipelined.
    bool unpipelined = si.op == isa::OpClass::IntDiv ||
                       si.op == isa::OpClass::FpDiv;
    Cycles occupancy = unpipelined ? traits.latency : 1;
    Cycles issue = allocFu(traits.fu, ready, occupancy);

    // ---- Execute / complete ----
    Cycles complete;
    if (inst.isMem()) {
        bool write = !inst.isLoad();
        Cycles lat = hier.accessData(inst.memAddr, write);
        if (inst.isLoad()) {
            ++stats_.loads;
            complete = issue + lat;
        } else {
            ++stats_.stores;
            // Stores complete into the store buffer; the cache state
            // update above models their footprint.
            complete = issue + 1;
        }
        lsqComplete[lsqSlot] = complete;
        if (++lsqSlot == cc.lsqEntries)
            lsqSlot = 0;
    } else {
        complete = issue + traits.latency;
    }

    if (traits.writesReg && si.dest != isa::noReg)
        regReady[si.dest] = complete;

    // ---- Branch resolution ----
    if (inst.isConditional() && branchMispredicted(inst)) {
        // Fetch redirects when the branch resolves; everything
        // younger refetches from the correct path.
        if (fetchCycle < complete + 1) {
            fetchCycle = complete + 1;
            fetchedThisCycle = 0;
        }
        redirectFetch();
    }

    // ---- In-order commit, commitWidth per cycle ----
    Cycles commit = std::max(complete + 1, lastCommit);
    if (commit == commitCycleOpen) {
        if (commitsThisCycle >= cc.commitWidth) {
            ++commit;
            commitCycleOpen = commit;
            commitsThisCycle = 1;
        } else {
            ++commitsThisCycle;
        }
    } else {
        commitCycleOpen = commit;
        commitsThisCycle = 1;
    }

    robCommit[robSlot] = commit;
    if (++robSlot == cc.robEntries)
        robSlot = 0;
    lastCommit = commit;
}

Cycles
OooCore::cycles() const
{
    return lastCommit;
}

void
OooCore::reset()
{
    resetShared();
    std::fill(regReady.begin(), regReady.end(), 0);
    for (auto &units : fuFree)
        std::fill(units.begin(), units.end(), 0);
    std::fill(robCommit.begin(), robCommit.end(), 0);
    std::fill(lsqComplete.begin(), lsqComplete.end(), 0);
    robSlot = 0;
    lsqSlot = 0;
    fetchCycle = 0;
    fetchedThisCycle = 0;
    lastCommit = 0;
    commitCycleOpen = 0;
    commitsThisCycle = 0;
}

} // namespace tpcp::uarch
