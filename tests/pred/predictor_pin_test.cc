/**
 * @file
 * Behaviour pins for the table predictors: every table spec name, the
 * greedy-tage TAGE configuration and the run-length predictor are fed
 * one seeded recurring-phase stream with noise, and everything they
 * report is folded into one digest per predictor:
 *  - every predict() (hit, confidence, analog score, primary and the
 *    candidates in order) and every observe() outcome;
 *  - the saveState() bytes at three points of the stream;
 *  - the state after seeded injectFault() rounds, raw and
 *    invalidating, and the predictions made from it afterwards.
 *
 * The expected digests were captured before the predictors' tables
 * were moved onto one shared storage layer (outcome payload, slot
 * codec, fault-victim choice); they pin that the move changed no
 * prediction, no checkpoint byte and no fault outcome.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "pred/change_predictor.hh"
#include "pred/length_predictor.hh"
#include "pred/predictor_spec.hh"

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

constexpr std::size_t kStream = 8000;
constexpr std::size_t kTail = 1500;
constexpr int kFaultRounds = 64;

/** A recurring eight-run cycle; one run in five is replaced by a
 * random phase out of 14 with a random length, so the tables see
 * more than 8 successors per context (summary eviction), more than 4
 * unique outcomes (ring wrap) and both hits and misses. */
std::vector<PhaseId>
pinStream(std::size_t n, std::uint64_t seed)
{
    static constexpr PhaseId kCycle[][2] = {{1, 4}, {2, 1}, {3, 6},
                                            {1, 2}, {4, 3}, {2, 1},
                                            {5, 9}, {3, 1}};
    Rng rng(seed);
    std::vector<PhaseId> out;
    out.reserve(n);
    for (std::size_t run = 0; out.size() < n; ++run) {
        PhaseId phase = kCycle[run % 8][0];
        PhaseId len = kCycle[run % 8][1];
        if (rng.nextBounded(5) == 0) {
            phase = 1 + rng.nextBounded(14);
            len = 1 + rng.nextBounded(12);
        }
        for (PhaseId i = 0; i < len && out.size() < n; ++i)
            out.push_back(phase);
    }
    return out;
}

template <typename Predictor>
void
logState(StateWriter &log, const Predictor &p)
{
    StateWriter w;
    p.saveState(w);
    log.u64(w.buffer().size());
    log.u64(fnv1a64(w.buffer().data(), w.buffer().size()));
}

void
logStep(StateWriter &log, PhaseChangePredictor &p, PhaseId actual)
{
    const ChangePrediction pred = p.predict();
    log.b(pred.tableHit);
    log.b(pred.confident);
    log.f64(pred.analog);
    log.u32(pred.primary);
    log.u8(static_cast<std::uint8_t>(pred.candidates.size()));
    for (PhaseId c : pred.candidates)
        log.u32(c);
    const std::optional<ChangeOutcome> out = p.observe(actual);
    log.b(out.has_value());
    if (out) {
        log.b(out->tableHit);
        log.b(out->confident);
        log.b(out->primaryCorrect);
        log.b(out->anyCorrect);
    }
}

void
logStep(StateWriter &log, RunLengthPredictor &p, PhaseId actual)
{
    const std::optional<unsigned> pending = p.pendingPrediction();
    log.b(pending.has_value());
    log.u32(pending.value_or(0));
    const std::optional<LengthPredRecord> rec = p.observe(actual);
    log.b(rec.has_value());
    if (rec) {
        log.u32(rec->predictedClass);
        log.u32(rec->actualClass);
        log.b(rec->tableHit);
    }
}

/** The digest of one predictor; @p make builds a fresh instance. */
template <typename Make>
std::uint64_t
pinDigest(Make make)
{
    const std::vector<PhaseId> stream = pinStream(kStream, 3001);
    const std::vector<PhaseId> tail = pinStream(kTail, 3002);
    StateWriter log;
    auto trained = make();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        logStep(log, *trained, stream[i]);
        if (i + 1 == 2000 || i + 1 == 5000 || i + 1 == kStream)
            logState(log, *trained);
    }
    StateWriter image;
    trained->saveState(image);
    for (bool invalidate : {false, true}) {
        auto faulty = make();
        StateReader r(image.buffer());
        faulty->loadState(r);
        Rng rng(std::uint64_t{4000} + invalidate);
        for (int k = 0; k < kFaultRounds; ++k)
            log.b(faulty->injectFault(rng, invalidate));
        logState(log, *faulty);
        for (PhaseId id : tail)
            logStep(log, *faulty, id);
        logState(log, *faulty);
    }
    return fnv1a64(log.buffer().data(), log.buffer().size());
}

struct Pin
{
    std::string name;
    std::uint64_t digest;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

TEST(PredictorPin, ChangeTablesAndTageMatchTheirDigests)
{
    TagePredictorConfig greedyTage; // the greedy-tage adapt preset
    greedyTage.rleAssist = true;
    greedyTage.confThreshold = 3;
    const std::vector<Pin> pins = {
        {"rle1", 0x349f8274b6910471},
        {"rle2", 0x6ae03c36cedf7c03},
        {"markov1", 0x4fa7b51c1cecde46},
        {"markov2", 0x2380aacf22d321e4},
        {"last4markov1", 0x24df0a93edbb03ac},
        {"top4markov1", 0x912696cba619365d},
        {"tage", 0xeacef35c22a78d94},
        {"greedy-tage", 0x7c076123fa8c649f},
    };
    for (const Pin &pin : pins) {
        const PredictorSpec spec =
            pin.name == "greedy-tage"
                ? PredictorSpec::tageSpec(greedyTage)
                : *predictorSpecByName(pin.name);
        const std::uint64_t got =
            pinDigest([&] { return spec.make(); });
        EXPECT_EQ(hex(got), hex(pin.digest)) << pin.name;
    }
}

TEST(PredictorPin, RunLengthPredictorMatchesItsDigests)
{
    LengthPredictorConfig quantized;
    quantized.quantizeKeyLengths = true;
    const std::vector<std::pair<LengthPredictorConfig, Pin>> pins = {
        {LengthPredictorConfig{}, {"rle2-exact", 0xa35f82bd7104a8c3}},
        {quantized, {"rle2-quantized", 0x9301184cde93c2c8}},
    };
    for (const auto &[cfg, pin] : pins) {
        const std::uint64_t got = pinDigest(
            [&] { return std::make_unique<RunLengthPredictor>(cfg); });
        EXPECT_EQ(hex(got), hex(pin.digest)) << pin.name;
    }
}
