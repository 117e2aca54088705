#include "analysis/experiment.hh"

#include "analysis/cov.hh"

namespace tpcp::analysis
{

ClassificationResult
classifyProfile(const trace::IntervalProfile &profile,
                const phase::ClassifierConfig &cfg)
{
    ClassificationResult out;
    out.workload = profile.workload();

    phase::PhaseClassifier classifier(cfg);
    std::size_t dim_idx = profile.dimIndex(cfg.numCounters);
    for (std::size_t i = 0; i < profile.numIntervals(); ++i) {
        const trace::IntervalRecord &rec = profile.interval(i);
        out.trace.push(classifier
                           .classifyRaw(profile.counters(i, dim_idx),
                                        cfg.numCounters, rec.accumTotal,
                                        rec.cpi)
                           .phase,
                       rec.cpi);
    }
    out.numPhases = classifier.numStablePhases();
    out.covCpi = weightedPhaseCov(out.trace.phases, out.trace.cpis);
    out.wholeProgramCov = wholeProgramCov(out.trace.cpis);
    out.transitionFraction =
        classifier.stats().transitionFraction();
    out.runLengths = summarizeRunLengths(out.trace.phases);
    out.classifierStats = classifier.stats();
    return out;
}

} // namespace tpcp::analysis
