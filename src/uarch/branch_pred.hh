/**
 * @file
 * The Table-1 conditional-branch direction predictor: an 8-bit-history
 * gshare with 2k 2-bit counters plus an 8k bimodal predictor, combined
 * by a chooser. Both timing cores hold one HybridPredictor by value;
 * the bimodal and gshare components are plain classes of their own.
 */

#ifndef TPCP_UARCH_BRANCH_PRED_HH
#define TPCP_UARCH_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "uarch/machine_config.hh"

namespace tpcp::uarch
{

/** PC-indexed table of 2-bit counters. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries);

    /** Predicts the direction of the branch at @p pc. */
    bool predict(Addr pc) const;
    /** Trains the predictor with the resolved direction. */
    void update(Addr pc, bool taken);
    void reset();

  private:
    unsigned index(Addr pc) const;

    std::vector<std::uint8_t> table;
    std::uint64_t mask;
};

/** Global-history XOR PC indexed table of 2-bit counters. */
class GsharePredictor
{
  public:
    GsharePredictor(unsigned entries, unsigned history_bits);

    bool predict(Addr pc) const;
    void update(Addr pc, bool taken);
    void reset();

  private:
    unsigned index(Addr pc) const;

    std::vector<std::uint8_t> table;
    std::uint64_t mask;
    std::uint64_t history = 0;
    std::uint64_t historyMask;
};

/**
 * The Table-1 hybrid predictor: a chooser table of 2-bit counters
 * selects between the gshare and bimodal components per branch; both
 * components always train, and the chooser trains toward whichever
 * component was correct when they disagree.
 */
class HybridPredictor
{
  public:
    explicit HybridPredictor(const BranchPredConfig &config);

    bool predict(Addr pc);
    void update(Addr pc, bool taken);
    void reset();

  private:
    unsigned chooserIndex(Addr pc) const;

    GsharePredictor gshare;
    BimodalPredictor bimodal;
    std::vector<std::uint8_t> chooser;
    std::uint64_t chooserMask;
    // Component predictions latched by predict() for update().
    bool lastGshare = false;
    bool lastBimodal = false;
};

/**
 * Predicts the branch at @p pc with @p predictor, trains it with the
 * resolved direction @p taken, and returns true when the prediction
 * was wrong.
 */
template <typename Predictor>
bool
predictAndTrain(Predictor &predictor, Addr pc, bool taken)
{
    bool pred = predictor.predict(pc);
    predictor.update(pc, taken);
    return pred != taken;
}

} // namespace tpcp::uarch

#endif // TPCP_UARCH_BRANCH_PRED_HH
