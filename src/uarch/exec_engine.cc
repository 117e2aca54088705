#include "uarch/exec_engine.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace tpcp::uarch
{

ExecEngine::ExecEngine(const isa::Program &program, std::uint64_t seed)
    : program(program), rng(seed)
{
    tpcp_assert(!program.regions.empty(), "program has no regions");
    regionState.resize(program.regions.size());
    for (std::size_t r = 0; r < program.regions.size(); ++r) {
        const isa::Region &reg = program.regions[r];
        regionState[r].streams.resize(reg.memStreams.size());
        regionState[r].behaviors.resize(reg.branchBehaviors.size());
    }
    enterRegion(0);
}

void
ExecEngine::enterRegion(std::uint32_t region)
{
    tpcp_assert(region < program.regions.size(), "bad region index");
    curRegion = region;
    curBlock = program.regions[region].entryBlock;
    curInst = 0;
}

Addr
ExecEngine::resolveMemAddr(const isa::Region &reg, const isa::Inst &inst)
{
    const isa::MemStreamDesc &desc = reg.memStreams[inst.stream];
    MemStreamState &state =
        regionState[curRegion].streams[inst.stream];
    // Keep accesses 8-byte aligned so they model word accesses.
    std::uint64_t ws = desc.workingSetBytes & ~std::uint64_t(7);
    if (ws < 8)
        ws = 8;

    Addr addr = 0;
    switch (desc.kind) {
      case isa::MemStreamDesc::Kind::Stride: {
        addr = desc.base + state.cursor;
        std::int64_t w = static_cast<std::int64_t>(ws);
        std::int64_t c = static_cast<std::int64_t>(state.cursor) +
                         desc.strideBytes;
        c %= w;
        if (c < 0) // negative strides wrap back into the working set
            c += w;
        state.cursor = static_cast<std::uint64_t>(c);
        break;
      }
      case isa::MemStreamDesc::Kind::RandomInSet:
        addr = desc.base + ((rng.next64() % ws) & ~std::uint64_t(7));
        break;
      case isa::MemStreamDesc::Kind::PointerChase:
        // Deterministic dependent walk: the next offset is a hash of
        // the current one, emulating a pointer load feeding the next
        // address with no spatial locality.
        addr = desc.base + state.cursor;
        state.cursor = (mix64(state.cursor ^ desc.base) % ws) &
                       ~std::uint64_t(7);
        break;
    }
    return addr;
}

bool
ExecEngine::resolveBranch(const isa::Region &reg, const isa::Inst &inst)
{
    const isa::BranchBehaviorDesc &desc =
        reg.branchBehaviors[inst.behavior];
    BranchBehaviorState &state =
        regionState[curRegion].behaviors[inst.behavior];

    switch (desc.kind) {
      case isa::BranchBehaviorDesc::Kind::LoopBack:
        ++state.loopCount;
        if (state.loopCount >= desc.tripCount) {
            state.loopCount = 0;
            return false; // exit the loop
        }
        return true; // keep iterating
      case isa::BranchBehaviorDesc::Kind::Bernoulli:
        return rng.nextBool(desc.takenProb);
      case isa::BranchBehaviorDesc::Kind::Pattern: {
        bool taken = (desc.patternBits >> state.patternPos) & 1;
        state.patternPos =
            static_cast<std::uint8_t>((state.patternPos + 1) %
                                      desc.patternLen);
        return taken;
      }
    }
    return false;
}

/** Out of line and cache-line aligned, like OooCore::consume. */
__attribute__((noinline, aligned(64))) const DynInst &
ExecEngine::next()
{
    const isa::Region &reg = program.regions[curRegion];
    const isa::BasicBlock &bb = program.blocks[curBlock];
    const isa::Inst &inst = bb.insts[curInst];

    out.staticInst = &inst;
    out.pc = bb.pc(curInst);
    out.region = curRegion;
    out.memAddr = 0;
    out.taken = false;

    if (inst.isMem())
        out.memAddr = resolveMemAddr(reg, inst);

    std::uint32_t next_block = curBlock;
    bool end_of_block = (curInst + 1 == bb.insts.size());

    if (inst.op == isa::OpClass::Jump) {
        out.taken = true;
        next_block = inst.targetBlock;
    } else if (inst.op == isa::OpClass::Branch) {
        out.taken = resolveBranch(reg, inst);
        next_block = out.taken ? inst.targetBlock : bb.fallthrough;
    } else if (end_of_block) {
        next_block = bb.fallthrough;
    }

    if (end_of_block || inst.isControl()) {
        curBlock = next_block;
        curInst = 0;
    } else {
        ++curInst;
    }

    ++instsDone;
    return out;
}

} // namespace tpcp::uarch
