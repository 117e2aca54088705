#include "pred/eval.hh"

#include <memory>

#include "phase/phase_trace.hh"
#include "pred/next_phase_predictor.hh"
#include "pred/perfect_markov.hh"

namespace tpcp::pred
{

void
NextPhaseStats::merge(const NextPhaseStats &other)
{
    total += other.total;
    correctTable += other.correctTable;
    incorrectTable += other.incorrectTable;
    correctLvConf += other.correctLvConf;
    correctLvUnconf += other.correctLvUnconf;
    incorrectLvUnconf += other.incorrectLvUnconf;
    incorrectLvConf += other.incorrectLvConf;
    phaseChanges += other.phaseChanges;
}

NextPhaseStats
evalNextPhase(const std::vector<PhaseId> &trace,
              const std::optional<PredictorSpec> &change,
              const LastValueConfig &lv_cfg)
{
    NextPhaseStats stats;
    std::unique_ptr<PhaseChangePredictor> table;
    if (change)
        table = change->make();
    const bool accept_any = table && table->acceptAny();
    NextPhasePredictor predictor(std::move(table), lv_cfg);

    PhaseId prev = invalidPhaseId;
    for (PhaseId actual : trace) {
        if (predictor.primed()) {
            NextPhasePrediction pred = predictor.predict();
            bool correct = pred.matches(actual, accept_any);
            ++stats.total;
            if (actual != prev)
                ++stats.phaseChanges;
            if (pred.source == PredictionSource::ChangeTable) {
                if (correct)
                    ++stats.correctTable;
                else
                    ++stats.incorrectTable;
            } else if (correct) {
                if (pred.lvConfident)
                    ++stats.correctLvConf;
                else
                    ++stats.correctLvUnconf;
            } else {
                if (pred.lvConfident)
                    ++stats.incorrectLvConf;
                else
                    ++stats.incorrectLvUnconf;
            }
        }
        predictor.observe(actual);
        prev = actual;
    }
    return stats;
}

void
ChangeOutcomeStats::merge(const ChangeOutcomeStats &other)
{
    changes += other.changes;
    confCorrect += other.confCorrect;
    unconfCorrect += other.unconfCorrect;
    tagMiss += other.tagMiss;
    unconfIncorrect += other.unconfIncorrect;
    confIncorrect += other.confIncorrect;
}

ChangeOutcomeStats
evalChangeOutcome(const std::vector<PhaseId> &trace,
                  const PredictorSpec &spec)
{
    ChangeOutcomeStats stats;
    std::unique_ptr<PhaseChangePredictor> predictor = spec.make();
    const bool accept_any = predictor->acceptAny();
    for (PhaseId actual : trace) {
        std::optional<ChangeOutcome> out = predictor->observe(actual);
        if (!out)
            continue;
        ++stats.changes;
        if (!out->tableHit) {
            ++stats.tagMiss;
            continue;
        }
        bool correct =
            accept_any ? out->anyCorrect : out->primaryCorrect;
        if (out->confident) {
            if (correct)
                ++stats.confCorrect;
            else
                ++stats.confIncorrect;
        } else {
            if (correct)
                ++stats.unconfCorrect;
            else
                ++stats.unconfIncorrect;
        }
    }
    return stats;
}

void
PerfectMarkovStats::merge(const PerfectMarkovStats &other)
{
    changes += other.changes;
    seenBefore += other.seenBefore;
}

PerfectMarkovStats
evalPerfectMarkov(const std::vector<PhaseId> &trace, unsigned order)
{
    PerfectMarkovStats stats;
    PerfectMarkov model(order);
    for (PhaseId actual : trace) {
        std::optional<PerfectOutcome> out = model.observe(actual);
        if (!out)
            continue;
        ++stats.changes;
        if (out->seenBefore)
            ++stats.seenBefore;
    }
    return stats;
}

void
RunLengthStats::merge(const RunLengthStats &other)
{
    predictions += other.predictions;
    correct += other.correct;
    totalRuns += other.totalRuns;
    for (unsigned c = 0; c < 4; ++c)
        classCounts[c] += other.classCounts[c];
}

RunLengthStats
evalRunLength(const std::vector<PhaseId> &trace,
              const LengthPredictorConfig &cfg)
{
    RunLengthStats stats;
    RunLengthPredictor predictor(cfg);

    auto account = [&](const std::optional<LengthPredRecord> &rec) {
        if (!rec)
            return;
        ++stats.predictions;
        if (rec->correct())
            ++stats.correct;
    };
    for (PhaseId actual : trace)
        account(predictor.observe(actual));
    account(predictor.finish());

    for (const phase::PhaseRun &run :
         phase::runLengthEncode(trace)) {
        ++stats.totalRuns;
        ++stats.classCounts[phase::runLengthClass(run.length)];
    }
    return stats;
}

} // namespace tpcp::pred
