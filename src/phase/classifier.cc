#include "phase/classifier.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace tpcp::phase
{

PhaseClassifier::PhaseClassifier(const ClassifierConfig &config)
    : cfg(config), sigTable(config.tableEntries, config.minCounterBits,
                            config.parityProtect),
      scratch(config.numCounters, 0)
{
    tpcp_assert(cfg.similarityThreshold > 0.0 &&
                cfg.similarityThreshold <= 1.0,
                "similarity threshold must be in (0, 1]");
}

ClassifyResult
PhaseClassifier::classifyRaw(const std::vector<std::uint32_t> &raw,
                             InstCount total, double cpi)
{
    tpcp_assert(raw.size() == cfg.numCounters,
                "accumulator snapshot has wrong dimensionality");
    return classifyOne(raw.data(), total, cpi);
}

ClassifyResult
PhaseClassifier::classifyRaw(const std::uint32_t *raw, std::size_t n,
                             InstCount total, double cpi)
{
    tpcp_assert(n == cfg.numCounters,
                "accumulator snapshot has wrong dimensionality");
    return classifyOne(raw, total, cpi);
}

ClassifyResult
PhaseClassifier::classifyOne(const std::uint32_t *raw,
                             InstCount total, double cpi)
{
    ClassifyResult res;
    ++stats_.intervals;

    // Input sanitization: a non-finite or negative CPI (damaged
    // profile, corrupted counter) must not poison the per-entry
    // running averages or the adaptive-threshold feedback. The
    // interval is still classified — only the feedback is dropped.
    const bool cpiOk = std::isfinite(cpi) && cpi >= 0.0;
    if (!cpiOk)
        ++stats_.rejectedCpiSamples;

    if (cfg.parityProtect && cfg.scrubEvery != 0 &&
        stats_.intervals % cfg.scrubEvery == 0)
        stats_.quarantines += sigTable.scrubParity();

    // Compress into the reusable scratch row: the hot path allocates
    // nothing and the table works on raw signature bytes.
    std::uint32_t weight = Signature::compressTo(
        raw, cfg.numCounters, total, cfg.bitsPerDim, cfg.bitSelection,
        cfg.staticShift, scratch.data());

    SignatureTable::MatchResult m = sigTable.match(
        scratch.data(), scratch.size(), weight, cfg.matchPolicy);
    while (m && cfg.parityProtect && !sigTable.checkParityAt(m.index)) {
        // Read-detected parity failure: the match was computed over
        // corrupt signature bytes, so it cannot be trusted. The entry
        // is now quarantined (match() skips it); rematch against the
        // remaining clean entries.
        ++stats_.quarantines;
        m = sigTable.match(scratch.data(), scratch.size(), weight,
                           cfg.matchPolicy);
    }
    bool repaired = false;
    if (cfg.parityProtect) {
        // Quarantined rows were excluded from the clean match, but
        // one of them may be the entry that would have matched
        // fault-free — either outright (clean miss) or better than
        // the clean winner (overlapping thresholds). Re-match against
        // them with syndrome-corrected distances, which closely
        // recover each damaged row's uncorrupted distance, and let
        // the corrected candidate compete under the same best-match
        // rule. A win repairs the entry in place with the fresh
        // signature while its ECC-protected phase ID and counters
        // survive; a loss falls through unchanged, so a genuinely new
        // phase still inserts. Only this split keeps the insertion
        // sequence — and therefore every future phase-ID allocation —
        // in lockstep with a fault-free run.
        if (!m) // misses are rare: a demand scrub is affordable
            stats_.quarantines += sigTable.scrubParity();
        if (sigTable.numQuarantined() != 0) {
            SignatureTable::MatchResult q = sigTable.matchQuarantined(
                scratch.data(), scratch.size(), weight);
            if (q && (!m || q.distance < m.distance)) {
                sigTable.repairEntry(q.index, scratch.data(),
                                     scratch.size(), weight);
                repaired = true;
                ++stats_.repairs;
                m = q;
            }
        }
    }
    if (m) {
        SigEntryMeta &meta = sigTable.meta(m.index);
        res.matched = !repaired;
        res.repaired = repaired;
        res.distance = m.distance;
        if (!repaired) {
            // The matching signature is replaced with the current one
            // so the entry tracks the phase's most recent code
            // profile. (A repair already rewrote the row, bumping the
            // LRU tick exactly once like touch() does.)
            sigTable.replaceSignature(m.index, scratch.data(),
                                      scratch.size(), weight);
            sigTable.touch(m.index);
        }
        meta.minCounter.increment();

        bool stable = cfg.minCountThreshold == 0 ||
                      meta.minCounter.value() >=
                          cfg.minCountThreshold;
        if (stable && meta.phase == transitionPhaseId &&
            cfg.minCountThreshold != 0) {
            meta.phase = nextPhase++;
        }
        res.phase = stable ? meta.phase : transitionPhaseId;

        // Performance feedback (section 4.6): if this interval's CPI
        // deviates too far from the entry's running average, tighten
        // the entry's similarity threshold and restart its stats.
        if (cpiOk && cfg.adaptiveThreshold && meta.cpi.count() >= 1) {
            double avg = meta.cpi.mean();
            if (avg > 0.0 &&
                std::abs(cpi - avg) / avg > cfg.cpiDeviationThreshold) {
                sigTable.setThreshold(
                    m.index,
                    std::max(cfg.thresholdFloor,
                             sigTable.threshold(m.index) / 2.0));
                meta.cpi.clear();
                res.thresholdHalved = true;
                ++stats_.thresholdHalvings;
            }
        }
        if (cpiOk)
            meta.cpi.push(cpi);
    } else {
        std::uint32_t idx = sigTable.insert(
            scratch.data(), scratch.size(), weight,
            cfg.similarityThreshold, cfg.bitsPerDim);
        SigEntryMeta &meta = sigTable.meta(idx);
        res.inserted = true;
        ++stats_.insertions;
        stats_.evictions = sigTable.evictions();
        if (cfg.minCountThreshold == 0) {
            // No transition phase: every new signature immediately
            // represents a new phase (prior work [25]).
            meta.phase = nextPhase++;
        } else if (meta.minCounter.value() >= cfg.minCountThreshold) {
            // min_count == 1: the inserting interval is already the
            // min_count-th sighting, so the phase is stable at once.
            meta.phase = nextPhase++;
        }
        res.phase = meta.phase;
        if (cpiOk)
            meta.cpi.push(cpi);
    }

    if (res.phase == transitionPhaseId)
        ++stats_.transitionIntervals;
    return res;
}

void
PhaseClassifier::saveState(StateWriter &w) const
{
    sigTable.saveState(w);
    w.u32(nextPhase);
    w.u64(stats_.intervals);
    w.u64(stats_.transitionIntervals);
    w.u64(stats_.insertions);
    w.u64(stats_.thresholdHalvings);
    w.u64(stats_.evictions);
    w.u64(stats_.repairs);
    w.u64(stats_.quarantines);
    w.u64(stats_.rejectedCpiSamples);
}

void
PhaseClassifier::loadState(StateReader &r)
{
    sigTable.loadState(r);
    // Rows of another width would trip the match-scan assertion on
    // the next interval.
    const std::size_t width = sigTable.rowSize();
    if ((width != 0 || sigTable.size() != 0) && width != cfg.numCounters)
        tpcp_raise("signature-table snapshot rows are ", width,
                   " bytes, the classifier compresses to ",
                   cfg.numCounters);
    nextPhase = r.u32();
    if (nextPhase < firstStablePhaseId)
        nextPhase = firstStablePhaseId;
    stats_.intervals = r.u64();
    stats_.transitionIntervals = r.u64();
    stats_.insertions = r.u64();
    stats_.thresholdHalvings = r.u64();
    stats_.evictions = r.u64();
    stats_.repairs = r.u64();
    stats_.quarantines = r.u64();
    stats_.rejectedCpiSamples = r.u64();
}

} // namespace tpcp::phase
