#include "uarch/branch_pred.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace tpcp::uarch
{

namespace
{

/** Updates a 2-bit counter toward @p taken. */
void
train2bit(std::uint8_t &ctr, bool taken)
{
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace

BimodalPredictor::BimodalPredictor(unsigned entries)
    : table(entries, 2), mask(entries - 1)
{
    tpcp_assert(isPowerOf2(entries));
}

unsigned
BimodalPredictor::index(Addr pc) const
{
    // Drop the instruction-alignment bits before indexing.
    return static_cast<unsigned>((pc >> 2) & mask);
}

bool
BimodalPredictor::predict(Addr pc) const
{
    return table[index(pc)] >= 2;
}

void
BimodalPredictor::update(Addr pc, bool taken)
{
    train2bit(table[index(pc)], taken);
}

void
BimodalPredictor::reset()
{
    std::fill(table.begin(), table.end(), 2);
}

GsharePredictor::GsharePredictor(unsigned entries, unsigned history_bits)
    : table(entries, 2), mask(entries - 1),
      historyMask(maskLow(history_bits))
{
    tpcp_assert(isPowerOf2(entries));
    tpcp_assert(history_bits >= 1 && history_bits <= 32);
}

unsigned
GsharePredictor::index(Addr pc) const
{
    return static_cast<unsigned>(((pc >> 2) ^ history) & mask);
}

bool
GsharePredictor::predict(Addr pc) const
{
    return table[index(pc)] >= 2;
}

void
GsharePredictor::update(Addr pc, bool taken)
{
    train2bit(table[index(pc)], taken);
    history = ((history << 1) | (taken ? 1 : 0)) & historyMask;
}

void
GsharePredictor::reset()
{
    std::fill(table.begin(), table.end(), 2);
    history = 0;
}

HybridPredictor::HybridPredictor(const BranchPredConfig &config)
    : gshare(config.gshareEntries, config.gshareHistoryBits),
      bimodal(config.bimodalEntries),
      chooser(config.chooserEntries, 2),
      chooserMask(config.chooserEntries - 1)
{
    tpcp_assert(isPowerOf2(config.chooserEntries));
}

unsigned
HybridPredictor::chooserIndex(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) & chooserMask);
}

bool
HybridPredictor::predict(Addr pc)
{
    lastGshare = gshare.predict(pc);
    lastBimodal = bimodal.predict(pc);
    bool use_gshare = chooser[chooserIndex(pc)] >= 2;
    return use_gshare ? lastGshare : lastBimodal;
}

void
HybridPredictor::update(Addr pc, bool taken)
{
    // The chooser trains toward the component that was right when the
    // components disagree (McFarling-style tournament update).
    if (lastGshare != lastBimodal)
        train2bit(chooser[chooserIndex(pc)], lastGshare == taken);
    gshare.update(pc, taken);
    bimodal.update(pc, taken);
}

void
HybridPredictor::reset()
{
    gshare.reset();
    bimodal.reset();
    std::fill(chooser.begin(), chooser.end(), 2);
}

} // namespace tpcp::uarch
