#include "pred/perceptron_predictor.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "phase/phase_trace.hh"

namespace tpcp::pred
{

PerceptronPredictor::PerceptronPredictor(
    const PerceptronPredictorConfig &config)
    : cfg(config), theta_(config.thetaInit)
{
    if (cfg.weightRows == 0 || cfg.successorRows == 0)
        tpcp_raise("perceptron predictor: zero-row table");
    if (cfg.historyRuns == 0 || cfg.historyRuns > 64)
        tpcp_raise("perceptron predictor: history of ",
                   cfg.historyRuns, " runs outside 1..64");
    if (cfg.weightMin >= 0 || cfg.weightMax <= 0 ||
        cfg.weightMin < -128 || cfg.weightMax > 127)
        tpcp_raise("perceptron predictor: weight clamp [",
                   cfg.weightMin, ", ", cfg.weightMax,
                   "] must straddle zero within int8");
    if (cfg.thetaInit < 1 || cfg.thetaInit > cfg.thetaMax)
        tpcp_raise("perceptron predictor: theta ", cfg.thetaInit,
                   " outside 1..", cfg.thetaMax);
    if (cfg.maxSuccessors < 1 || cfg.maxSuccessors > 8)
        tpcp_raise("perceptron predictor: successor cap ",
                   cfg.maxSuccessors, " outside 1..8");
    weights.assign(cfg.weightRows, 0);
    rows.resize(cfg.successorRows);
}

std::uint32_t
PerceptronPredictor::rowIndex(PhaseId phase) const
{
    return static_cast<std::uint32_t>(
        mix64(static_cast<std::uint64_t>(phase) + 1) %
        cfg.successorRows);
}

void
PerceptronPredictor::featureHashes(
    std::vector<std::uint64_t> &out) const
{
    out.clear();
    // Position-salted history features: the same (phase, class) run
    // at a different distance from the present is a different
    // feature, so the weights can learn positional patterns.
    std::size_t n = history.size();
    std::size_t start =
        n > cfg.historyRuns ? n - cfg.historyRuns : 0;
    for (std::size_t i = start; i < n; ++i) {
        std::uint64_t pos = n - i; // 1 = most recent
        std::uint64_t h = mix64(pos * 0x9e3779b97f4a7c15ULL);
        h = mix64(h ^ (static_cast<std::uint64_t>(
                           history[i].first) + 1));
        h = mix64(h ^ (history[i].second + 0x51ULL));
        out.push_back(h);
    }
    out.push_back(mix64(0x5851f42d4c957f2dULL ^
                        (static_cast<std::uint64_t>(lastPhase) + 1)));
}

std::uint32_t
PerceptronPredictor::weightIndex(std::uint64_t feature,
                                 PhaseId candidate) const
{
    return static_cast<std::uint32_t>(
        mix64(feature ^
              mix64(static_cast<std::uint64_t>(candidate) +
                    0xda3e39cb94b95bdbULL)) %
        cfg.weightRows);
}

int
PerceptronPredictor::score(
    const std::vector<std::uint64_t> &features,
    PhaseId candidate) const
{
    int s = 0;
    for (std::uint64_t f : features)
        s += weights[weightIndex(f, candidate)];
    return s;
}

std::vector<PerceptronPredictor::Scored>
PerceptronPredictor::rank(
    const std::vector<std::uint64_t> &features) const
{
    std::vector<Scored> out;
    const SuccessorRow &row = rows[rowIndex(lastPhase)];
    if (!row.valid || row.phase != lastPhase)
        return out;
    out.reserve(row.n);
    for (unsigned k = 0; k < row.n; ++k)
        out.push_back({row.succ[k], score(features, row.succ[k])});
    // Stable sort keeps successor-slot order on score ties, which
    // keeps every replay and checkpoint-resume bit-identical.
    std::stable_sort(out.begin(), out.end(),
                     [](const Scored &a, const Scored &b) {
                         return a.score > b.score;
                     });
    return out;
}

ChangePrediction
PerceptronPredictor::predict() const
{
    ChangePrediction out;
    if (!primed)
        return out;
    std::vector<std::uint64_t> features;
    featureHashes(features);
    std::vector<Scored> ranked = rank(features);
    if (ranked.empty())
        return out;
    out.tableHit = true;
    out.primary = ranked[0].phase;
    int margin = ranked.size() > 1
                     ? ranked[0].score - ranked[1].score
                     : ranked[0].score;
    out.analog = static_cast<double>(margin);
    out.confident = margin >= cfg.confMargin;
    unsigned keep = cfg.acceptAnyRule ? 4u : 1u;
    for (unsigned k = 0; k < ranked.size() && k < keep; ++k)
        out.candidates.push_back(ranked[k].phase);
    return out;
}

void
PerceptronPredictor::adjust(
    const std::vector<std::uint64_t> &features, PhaseId candidate,
    int delta)
{
    for (std::uint64_t f : features) {
        int w = weights[weightIndex(f, candidate)] + delta;
        w = std::min(std::max(w, cfg.weightMin), cfg.weightMax);
        weights[weightIndex(f, candidate)] =
            static_cast<std::int8_t>(w);
    }
}

void
PerceptronPredictor::recordSuccessor(PhaseId actual)
{
    SuccessorRow &row = rows[rowIndex(lastPhase)];
    if (!row.valid || row.phase != lastPhase) {
        row = SuccessorRow{};
        row.valid = true;
        row.phase = lastPhase;
    }
    for (unsigned k = 0; k < row.n; ++k) {
        if (row.succ[k] == actual) {
            if (row.count[k] < 255)
                ++row.count[k];
            return;
        }
    }
    if (row.n < cfg.maxSuccessors) {
        row.succ[row.n] = actual;
        row.count[row.n] = 1;
        ++row.n;
        return;
    }
    // Full: evict the first minimum-count successor.
    unsigned victim = 0;
    for (unsigned k = 1; k < row.n; ++k) {
        if (row.count[k] < row.count[victim])
            victim = k;
    }
    row.succ[victim] = actual;
    row.count[victim] = 1;
}

void
PerceptronPredictor::trainOnChange(PhaseId actual)
{
    std::vector<std::uint64_t> features;
    featureHashes(features);
    std::vector<Scored> ranked = rank(features);

    PhaseId predicted =
        ranked.empty() ? invalidPhaseId : ranked[0].phase;
    int margin = 0;
    if (!ranked.empty()) {
        margin = ranked.size() > 1
                     ? ranked[0].score - ranked[1].score
                     : ranked[0].score;
    }
    const bool correct = predicted == actual;

    // Perceptron rule: train on a wrong winner, or a right one that
    // won by less than theta.
    if (!correct || margin < theta_) {
        adjust(features, actual, +1);
        if (!correct && predicted != invalidPhaseId)
            adjust(features, predicted, -1);
    }

    // O-GEHL threshold adaptation: mispredicts push theta up,
    // comfortable-margin corrects pull it back down.
    if (!correct) {
        if (++tc >= tcSaturation) {
            tc = 0;
            theta_ = std::min(theta_ + 1, cfg.thetaMax);
        }
    } else if (margin < theta_) {
        if (--tc <= -tcSaturation) {
            tc = 0;
            theta_ = std::max(theta_ - 1, 1);
        }
    }

    recordSuccessor(actual);
}

std::optional<ChangeOutcome>
PerceptronPredictor::observe(PhaseId actual)
{
    if (!primed) {
        primed = true;
        lastPhase = actual;
        runLen = 1;
        return std::nullopt;
    }
    if (actual == lastPhase) {
        ++runLen;
        return std::nullopt;
    }

    ChangeOutcome rec;
    ChangePrediction pred = predict();
    rec.tableHit = pred.tableHit;
    rec.confident = pred.confident;
    rec.primaryCorrect = pred.tableHit && pred.primary == actual;
    rec.anyCorrect = pred.tableHit && pred.matches(actual);

    trainOnChange(actual);

    history.emplace_back(
        lastPhase,
        static_cast<std::uint8_t>(phase::runLengthClass(runLen)));
    while (history.size() > cfg.historyRuns)
        history.pop_front();

    lastPhase = actual;
    runLen = 1;
    return rec;
}

bool
PerceptronPredictor::injectFault(Rng &rng, bool invalidate)
{
    std::vector<SuccessorRow *> live;
    for (SuccessorRow &row : rows) {
        if (row.valid)
            live.push_back(&row);
    }
    if (!primed && live.empty())
        return false;
    // Half the soft-error surface is the weight SRAM, half the
    // successor sets (when any exist).
    if (live.empty() || rng.nextBool()) {
        std::uint32_t idx = rng.nextBounded(
            static_cast<std::uint32_t>(weights.size()));
        if (invalidate) {
            // ECC model: detected and scrubbed to the neutral value.
            weights[idx] = 0;
            return true;
        }
        int w = static_cast<std::int8_t>(
            static_cast<std::uint8_t>(weights[idx]) ^
            (1u << rng.nextBounded(8)));
        weights[idx] = static_cast<std::int8_t>(
            std::min(std::max(w, cfg.weightMin), cfg.weightMax));
        return true;
    }
    SuccessorRow &row = *live[rng.nextBounded(
        static_cast<std::uint32_t>(live.size()))];
    if (invalidate) {
        row.valid = false;
        return true;
    }
    if (row.n > 0 && rng.nextBool()) {
        unsigned k = rng.nextBounded(row.n);
        row.succ[k] ^= PhaseId(1) << rng.nextBounded(32);
    } else {
        row.phase ^= PhaseId(1) << rng.nextBounded(32);
    }
    return true;
}

void
PerceptronPredictor::saveState(StateWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(weights.size()));
    w.u32(static_cast<std::uint32_t>(rows.size()));
    w.raw(weights.data(), weights.size());
    for (const SuccessorRow &row : rows) {
        w.b(row.valid);
        w.u32(row.phase);
        for (PhaseId p : row.succ)
            w.u32(p);
        for (std::uint8_t c : row.count)
            w.u8(c);
        w.u8(row.n);
    }
    w.u32(static_cast<std::uint32_t>(theta_));
    w.u32(static_cast<std::uint32_t>(tc + tcSaturation));
    w.b(primed);
    w.u32(lastPhase);
    w.u64(runLen);
    w.u64(history.size());
    for (const auto &[id, cls] : history) {
        w.u32(id);
        w.u8(cls);
    }
}

void
PerceptronPredictor::loadState(StateReader &r)
{
    const std::uint32_t savedWeights = r.u32();
    const std::uint32_t savedRows = r.u32();
    if (savedWeights != weights.size() || savedRows != rows.size())
        tpcp_raise("perceptron snapshot geometry ", savedWeights,
                   "x", savedRows, " does not match the configured ",
                   weights.size(), "x", rows.size());
    r.raw(weights.data(), weights.size());
    for (std::int8_t &w : weights) {
        // Clamp to the configured hardware range.
        int v = w;
        w = static_cast<std::int8_t>(
            std::min(std::max(v, cfg.weightMin), cfg.weightMax));
    }
    for (SuccessorRow &row : rows) {
        row.valid = r.b();
        row.phase = r.u32();
        for (PhaseId &p : row.succ)
            p = r.u32();
        for (std::uint8_t &c : row.count)
            c = r.u8();
        row.n = std::min<std::uint8_t>(
            r.u8(), static_cast<std::uint8_t>(cfg.maxSuccessors));
    }
    int t = static_cast<int>(r.u32());
    theta_ = std::min(std::max(t, 1), cfg.thetaMax);
    int tcRaw = static_cast<int>(r.u32()) - tcSaturation;
    tc = std::min(std::max(tcRaw, -tcSaturation), tcSaturation);
    primed = r.b();
    lastPhase = r.u32();
    runLen = r.u64();
    std::uint64_t n = r.count(4 + 1);
    if (n > cfg.historyRuns)
        tpcp_raise("perceptron snapshot: history of ", n,
                   " runs exceeds the configured ", cfg.historyRuns);
    history.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        PhaseId id = r.u32();
        std::uint8_t cls = r.u8();
        history.emplace_back(
            id, std::min<std::uint8_t>(
                    cls, phase::numRunLengthClasses - 1));
    }
}

} // namespace tpcp::pred
