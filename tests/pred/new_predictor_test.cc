/**
 * @file
 * Unit tests for the TAGE-style and perceptron phase-change
 * predictors added on top of the paper's Markov/RLE stack:
 * checkpoint round-trips (byte-identical re-save, identical
 * continued predictions), snapshot geometry/truncation rejection,
 * fault injection in both the mitigated and unmitigated models, the
 * table-geometry validation shared with the paper predictors, the
 * no-training end-of-trace flush of the run-length predictor, and
 * the constant-phase (zero-change) regression for every registered
 * predictor spec.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "pred/change_predictor.hh"
#include "pred/eval.hh"
#include "pred/length_predictor.hh"
#include "pred/perceptron_predictor.hh"
#include "pred/predictor_spec.hh"
#include "pred/tage_predictor.hh"

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

/** A phase trace with enough recurring structure that both new
 * predictors allocate/train real state: three interleaved run
 * patterns, repeated. */
std::vector<PhaseId>
patternedTrace(int repetitions)
{
    const std::vector<std::pair<PhaseId, int>> pattern = {
        {1, 5}, {2, 3}, {1, 5}, {3, 2}, {4, 7}, {2, 3},
    };
    std::vector<PhaseId> trace;
    for (int rep = 0; rep < repetitions; ++rep)
        for (const auto &[id, len] : pattern)
            for (int i = 0; i < len; ++i)
                trace.push_back(id);
    return trace;
}

void
feed(PhaseChangePredictor &p, const std::vector<PhaseId> &trace)
{
    for (PhaseId id : trace)
        p.observe(id);
}

std::vector<std::uint8_t>
snapshot(const PhaseChangePredictor &p)
{
    StateWriter w;
    p.saveState(w);
    return w.buffer();
}

/** Saves @p trained, restores into @p fresh, then drives both
 * through @p tail asserting identical predictions and outcomes at
 * every step, and finally that both re-save to identical bytes. */
template <typename Predictor>
void
expectRoundTripEquivalent(Predictor &trained, Predictor &fresh,
                          const std::vector<PhaseId> &tail)
{
    std::vector<std::uint8_t> bytes = snapshot(trained);
    StateReader r(bytes);
    fresh.loadState(r);
    EXPECT_EQ(r.remaining(), 0u) << "loadState consumed everything";

    for (std::size_t i = 0; i < tail.size(); ++i) {
        ChangePrediction a = trained.predict();
        ChangePrediction b = fresh.predict();
        EXPECT_EQ(a.tableHit, b.tableHit) << "interval " << i;
        EXPECT_EQ(a.confident, b.confident) << "interval " << i;
        EXPECT_EQ(a.primary, b.primary) << "interval " << i;
        EXPECT_EQ(a.candidates, b.candidates) << "interval " << i;

        auto oa = trained.observe(tail[i]);
        auto ob = fresh.observe(tail[i]);
        ASSERT_EQ(oa.has_value(), ob.has_value()) << "interval " << i;
        if (oa) {
            EXPECT_EQ(oa->primaryCorrect, ob->primaryCorrect);
            EXPECT_EQ(oa->anyCorrect, ob->anyCorrect);
        }
    }
    EXPECT_EQ(snapshot(trained), snapshot(fresh))
        << "re-saved snapshots diverge after identical input";
}

} // namespace

// --- Checkpoint round-trips -------------------------------------

TEST(TagePredictor, CheckpointRoundTripIsByteIdentical)
{
    TagePredictor trained, fresh;
    feed(trained, patternedTrace(6));
    expectRoundTripEquivalent(trained, fresh, patternedTrace(3));
}

TEST(PerceptronPredictor, CheckpointRoundTripIsByteIdentical)
{
    PerceptronPredictor trained, fresh;
    feed(trained, patternedTrace(6));
    expectRoundTripEquivalent(trained, fresh, patternedTrace(3));
}

TEST(TagePredictor, UnprimedCheckpointRoundTrips)
{
    TagePredictor trained, fresh;
    expectRoundTripEquivalent(trained, fresh, patternedTrace(2));
}

// --- Snapshot rejection -----------------------------------------

TEST(TagePredictor, LoadRejectsGeometryMismatch)
{
    TagePredictor trained;
    feed(trained, patternedTrace(4));
    std::vector<std::uint8_t> bytes = snapshot(trained);

    TagePredictorConfig narrow;
    narrow.tableEntries = 64;
    TagePredictor other(narrow);
    StateReader r(bytes);
    EXPECT_THROW(other.loadState(r), tpcp::Error);

    TagePredictorConfig fewer;
    fewer.historyLengths = {1, 2, 4};
    TagePredictor shallower(fewer);
    StateReader r2(bytes);
    EXPECT_THROW(shallower.loadState(r2), tpcp::Error);
}

TEST(PerceptronPredictor, LoadRejectsGeometryMismatch)
{
    PerceptronPredictor trained;
    feed(trained, patternedTrace(4));
    std::vector<std::uint8_t> bytes = snapshot(trained);

    PerceptronPredictorConfig narrow;
    narrow.weightRows = 256;
    PerceptronPredictor other(narrow);
    StateReader r(bytes);
    EXPECT_THROW(other.loadState(r), tpcp::Error);
}

TEST(TagePredictor, LoadRejectsTruncatedSnapshot)
{
    TagePredictor trained;
    feed(trained, patternedTrace(4));
    std::vector<std::uint8_t> bytes = snapshot(trained);
    // Any truncation must surface as a structural error, never as a
    // predictor quietly initialized from garbage.
    for (std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t(3)}) {
        TagePredictor fresh;
        StateReader r(bytes.data(), keep);
        EXPECT_THROW(fresh.loadState(r), tpcp::Error)
            << "truncated to " << keep << " bytes";
    }
}

TEST(PerceptronPredictor, LoadRejectsTruncatedSnapshot)
{
    PerceptronPredictor trained;
    feed(trained, patternedTrace(4));
    std::vector<std::uint8_t> bytes = snapshot(trained);
    for (std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t(3)}) {
        PerceptronPredictor fresh;
        StateReader r(bytes.data(), keep);
        EXPECT_THROW(fresh.loadState(r), tpcp::Error)
            << "truncated to " << keep << " bytes";
    }
}

// --- Fault injection --------------------------------------------

TEST(TagePredictor, InjectFaultNeedsLiveEntries)
{
    TagePredictor p;
    Rng rng(1234);
    // No table content yet: nothing to flip in either model.
    EXPECT_FALSE(p.injectFault(rng, false));
    EXPECT_FALSE(p.injectFault(rng, true));

    feed(p, patternedTrace(4));
    EXPECT_TRUE(p.injectFault(rng, false));
    EXPECT_TRUE(p.injectFault(rng, true));
}

TEST(PerceptronPredictor, InjectFaultBothModels)
{
    PerceptronPredictor p;
    Rng rng(99);
    feed(p, patternedTrace(4));
    EXPECT_TRUE(p.injectFault(rng, false));
    EXPECT_TRUE(p.injectFault(rng, true));
}

TEST(TagePredictor, MitigatedFaultDegradesToRetrainableMiss)
{
    // The mitigated (ECC detect-and-drop) model may only ever erase
    // entries; the predictor must keep answering and re-learn.
    TagePredictor p;
    Rng rng(7);
    feed(p, patternedTrace(6));
    for (int i = 0; i < 64; ++i)
        p.injectFault(rng, true);
    feed(p, patternedTrace(6));
    EXPECT_TRUE(p.predict().tableHit)
        << "predictor never recovered from mitigated faults";
}

// --- Table-geometry validation (shared with the paper stack) ----

TEST(TagePredictor, RejectsNonMultipleBaseGeometry)
{
    TagePredictorConfig cfg;
    cfg.baseEntries = 10;
    cfg.baseWays = 4;
    EXPECT_THROW(TagePredictor{cfg}, tpcp::Error);
}

TEST(TagePredictor, RejectsGeometryBeyondItsFixedState)
{
    TagePredictorConfig widest;
    widest.historyLengths = {1, 2, 3, 4, 6, TagePredictor::maxHistory};
    EXPECT_NO_THROW(TagePredictor{widest});

    TagePredictorConfig tooMany;
    tooMany.historyLengths = {1, 2, 3, 4, 5, 6, 7};
    EXPECT_THROW(TagePredictor{tooMany}, tpcp::Error);

    TagePredictorConfig tooLong;
    tooLong.historyLengths = {1, 2, TagePredictor::maxHistory + 1};
    EXPECT_THROW(TagePredictor{tooLong}, tpcp::Error);
}

TEST(ChangePredictor, RejectsNonMultipleTableGeometry)
{
    ChangePredictorConfig cfg = ChangePredictorConfig::markov(1);
    cfg.tableEntries = 30; // not a multiple of 4 ways
    EXPECT_THROW(ChangePredictor{cfg}, tpcp::Error);
}

TEST(LengthPredictor, RejectsNonMultipleTableGeometry)
{
    LengthPredictorConfig cfg;
    cfg.tableEntries = 30;
    cfg.tableWays = 4;
    EXPECT_THROW(RunLengthPredictor{cfg}, tpcp::Error);
}

// --- End-of-trace flush (no training on truncated runs) ---------

TEST(LengthPredictor, FinishReportsWithoutTraining)
{
    // Two predictors fed identically; one flushed. finish() must
    // report the standing prediction for the accounting but leave
    // the table untouched — the final run was cut by the end of the
    // trace, not by a real phase change, so its length is a lie.
    RunLengthPredictor flushed, control;
    std::vector<PhaseId> trace = patternedTrace(4);
    // Stop mid-run so the open run is genuinely truncated.
    trace.resize(trace.size() - 2);
    for (PhaseId id : trace) {
        flushed.observe(id);
        control.observe(id);
    }
    ASSERT_TRUE(flushed.pendingPrediction().has_value());
    EXPECT_TRUE(flushed.finish().has_value());

    // finish() may clear exactly one thing — the pending flag. Any
    // further byte difference means the table trained on the
    // truncated final run.
    StateWriter wf, wc;
    flushed.saveState(wf);
    control.saveState(wc);
    ASSERT_EQ(wf.size(), wc.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < wf.size(); ++i)
        differing += wf.buffer()[i] != wc.buffer()[i];
    EXPECT_EQ(differing, 1u)
        << "finish() trained on the truncated final run";
}

// --- Constant-phase streams (divide-by-zero regression) ---------

TEST(PredictorSpecs, ConstantPhaseTraceIsFiniteEverywhere)
{
    const std::vector<PhaseId> constant(64, PhaseId(5));
    for (const std::string &name : predictorSpecNames()) {
        auto spec = predictorSpecByName(name);
        if (spec) {
            // "lastvalue" maps to no spec by design: the last-value
            // predictor has no change table to configure.
            ChangeOutcomeStats cs =
                evalChangeOutcome(constant, *spec);
            EXPECT_EQ(cs.changes, 0u) << name;
            EXPECT_EQ(cs.correctRate(), 0.0) << name;
            EXPECT_EQ(cs.confidentCorrectRate(), 0.0) << name;
        }

        NextPhaseStats ns = evalNextPhase(constant, spec);
        EXPECT_GE(ns.accuracy(), 0.0) << name;
        EXPECT_LE(ns.accuracy(), 1.0) << name;
        EXPECT_GE(ns.confidentAccuracy(), 0.0) << name;
        EXPECT_LE(ns.confidentAccuracy(), 1.0) << name;
    }
}

TEST(PredictorSpecs, EmptyTraceIsFiniteEverywhere)
{
    const std::vector<PhaseId> empty;
    for (const std::string &name : predictorSpecNames()) {
        auto spec = predictorSpecByName(name);
        if (!spec)
            continue;
        ChangeOutcomeStats cs = evalChangeOutcome(empty, *spec);
        EXPECT_EQ(cs.changes, 0u) << name;
        EXPECT_EQ(cs.correctRate(), 0.0) << name;
    }
}
