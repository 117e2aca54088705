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
    // Batched replay: gather the stored snapshots into RawInterval
    // views once, classify them in a single call (identical results
    // to one classifyRaw() per interval), then fold the results.
    const auto &intervals = profile.intervals();
    std::vector<phase::RawInterval> views;
    views.reserve(intervals.size());
    for (std::size_t i = 0; i < intervals.size(); ++i)
        views.push_back({profile.counters(i, dim_idx),
                         intervals[i].accumTotal, intervals[i].cpi});
    std::vector<phase::ClassifyResult> results(views.size());
    classifier.classifyIntervals(views.data(), views.size(),
                                 results.data());
    for (std::size_t i = 0; i < results.size(); ++i)
        out.trace.push(results[i].phase, intervals[i].cpi);

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
