#include "pred/phase_tracker.hh"

#include "common/state_io.hh"

namespace tpcp::pred
{

PhaseTracker::PhaseTracker(const PhaseTrackerConfig &config)
    : classifier_(config.classifier),
      nextPhase(config.changeTable.make(), config.lastValue),
      lengthPred(config.length)
{
}

PhaseTrackerOutput
PhaseTracker::onIntervalRaw(const std::vector<std::uint32_t> &raw,
                            InstCount total, double cpi)
{
    return finishInterval(classifier_.classifyRaw(raw, total, cpi));
}

PhaseTrackerOutput
PhaseTracker::onIntervalRaw(const std::uint32_t *raw, std::size_t n,
                            InstCount total, double cpi)
{
    return finishInterval(
        classifier_.classifyRaw(raw, n, total, cpi));
}

PhaseTrackerOutput
PhaseTracker::finishInterval(const phase::ClassifyResult &classification)
{
    PhaseTrackerOutput out;
    out.classification = classification;
    PhaseId id = out.classification.phase;
    out.phaseChanged = intervals_ > 0 && id != lastPhase;

    // Train the predictors with the observed phase, then report the
    // forward-looking predictions.
    out.changeOutcome = nextPhase.observe(id);
    out.completedRun = lengthPred.observe(id);
    out.nextPhase = nextPhase.predict();
    out.currentRunLengthClass = lengthPred.pendingPrediction();

    lastPhase = id;
    ++intervals_;
    return out;
}

void
PhaseTracker::saveState(StateWriter &w) const
{
    classifier_.saveState(w);
    nextPhase.saveState(w);
    lengthPred.saveState(w);
    w.u32(lastPhase);
    w.u64(intervals_);
}

void
PhaseTracker::loadState(StateReader &r)
{
    classifier_.loadState(r);
    nextPhase.loadState(r);
    lengthPred.loadState(r);
    lastPhase = r.u32();
    intervals_ = r.u64();
}

} // namespace tpcp::pred
