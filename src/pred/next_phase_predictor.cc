#include "pred/next_phase_predictor.hh"

#include "common/state_io.hh"

namespace tpcp::pred
{

NextPhasePredictor::NextPhasePredictor(
    std::unique_ptr<PhaseChangePredictor> change_in,
    const LastValueConfig &lv_cfg)
    : change(std::move(change_in)), lastValue(lv_cfg)
{
}

NextPhasePrediction
NextPhasePredictor::predict() const
{
    NextPhasePrediction out;
    if (change) {
        ChangePrediction cp = change->predict();
        if (cp.tableHit && cp.confident) {
            out.phase = cp.primary;
            out.source = PredictionSource::ChangeTable;
            out.candidates = cp.candidates;
            return out;
        }
    }
    out.phase = lastValue.predict();
    out.source = PredictionSource::LastValue;
    out.lvConfident = lastValue.confident();
    return out;
}

std::optional<ChangeOutcome>
NextPhasePredictor::observe(PhaseId actual)
{
    std::optional<ChangeOutcome> outcome;
    if (change)
        outcome = change->observe(actual);
    lastValue.observe(actual);
    return outcome;
}

void
NextPhasePredictor::saveState(StateWriter &w) const
{
    w.b(change != nullptr);
    if (change)
        change->saveState(w);
    lastValue.saveState(w);
}

void
NextPhasePredictor::loadState(StateReader &r)
{
    const bool hadChange = r.b();
    if (hadChange != (change != nullptr))
        tpcp_raise("next-phase snapshot change-table presence "
                   "mismatch");
    if (change)
        change->loadState(r);
    lastValue.loadState(r);
}

} // namespace tpcp::pred
