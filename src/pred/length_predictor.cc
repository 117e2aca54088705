#include "pred/length_predictor.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "phase/phase_trace.hh"
#include "pred/predictor_base.hh"

namespace tpcp::pred
{

RunLengthPredictor::RunLengthPredictor(
    const LengthPredictorConfig &config)
    : cfg(config),
      table(predictorNumSets(config.tableEntries, config.tableWays,
                             "run-length predictor"),
            config.tableWays)
{
    tpcp_assert(cfg.order >= 1 && cfg.order <= 8);
}

std::uint64_t
RunLengthPredictor::historyHash() const
{
    // Hash over the last (order) completed runs; called right after a
    // run completes, so rleHist's newest entries are the RLE-2
    // context.
    std::uint64_t h = 0xc2b2ae3d27d4eb4fULL;
    const unsigned n = rleHist.size();
    for (unsigned i = n > cfg.order ? n - cfg.order : 0; i < n; ++i) {
        h = mix64(h ^ (static_cast<std::uint64_t>(
                           rleHist[i].first) + 1));
        std::uint64_t len = rleHist[i].second;
        if (cfg.quantizeKeyLengths)
            len = phase::runLengthClass(len);
        h = mix64(h ^ (len + 0x51ULL));
    }
    return h;
}

void
RunLengthPredictor::train(std::uint64_t key, unsigned actual_class)
{
    unsigned set = static_cast<unsigned>(key % table.numSets());
    auto *entry = table.find(set, key);
    if (entry) {
        // Hysteresis: adopt the new class only when seen twice in a
        // row; otherwise just remember it.
        if (entry->value.lastSeen == actual_class)
            entry->value.cls =
                static_cast<std::uint8_t>(actual_class);
        entry->value.lastSeen =
            static_cast<std::uint8_t>(actual_class);
        table.touch(*entry);
    } else {
        Entry fresh;
        fresh.cls = static_cast<std::uint8_t>(actual_class);
        fresh.lastSeen = fresh.cls;
        table.insert(set, key, fresh);
    }
}

std::optional<LengthPredRecord>
RunLengthPredictor::observe(PhaseId actual)
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

    // The current run just completed.
    unsigned actual_class =
        phase::runLengthClass(runLen);
    std::optional<LengthPredRecord> rec;
    if (havePending) {
        rec = LengthPredRecord{pendingClass, actual_class,
                               pendingHit};
        train(pendingKey, actual_class);
    }

    rleHist.push({lastPhase, runLen});

    // Predict the class of the run that starts now.
    std::uint64_t key = historyHash();
    unsigned set = static_cast<unsigned>(key % table.numSets());
    const auto *entry = table.find(set, key);
    havePending = true;
    pendingKey = key;
    pendingHit = entry != nullptr;
    pendingClass = entry ? entry->value.cls : cfg.defaultClass;

    lastPhase = actual;
    runLen = 1;
    return rec;
}

std::optional<LengthPredRecord>
RunLengthPredictor::finish()
{
    if (!primed || !havePending || runLen == 0)
        return std::nullopt;
    // The final run is cut off by the trace boundary, so its observed
    // class is only a lower bound on the true run length. Report the
    // standing prediction for the accounting but do NOT train on it:
    // learning the truncated class would mislearn the entry a
    // resumed/replayed trace hits next.
    unsigned actual_class = phase::runLengthClass(runLen);
    LengthPredRecord rec{pendingClass, actual_class, pendingHit};
    havePending = false;
    return rec;
}

bool
RunLengthPredictor::injectFault(Rng &rng, bool invalidate)
{
    const std::size_t live = table.size();
    if (live == 0)
        return false;
    auto &victim = table.nthValid(
        rng.nextBounded(static_cast<std::uint32_t>(live)));
    if (invalidate) {
        table.erase(victim);
        return true;
    }
    if (rng.nextBool()) {
        // Stored class: 2 physical bits cover the 4 classes.
        victim.value.cls = static_cast<std::uint8_t>(
            victim.value.cls ^ (1u << rng.nextBounded(2)));
    } else {
        victim.tag ^= std::uint64_t(1) << rng.nextBounded(64);
    }
    return true;
}

void
RunLengthPredictor::saveState(StateWriter &w) const
{
    w.u64(table.capacity());
    table.save(w, [&](const Entry &e) {
        w.u8(e.cls);
        w.u8(e.lastSeen);
    });
    w.b(primed);
    w.u32(lastPhase);
    w.u64(runLen);
    w.u64(rleHist.size());
    for (unsigned i = 0; i < rleHist.size(); ++i) {
        w.u32(rleHist[i].first);
        w.u64(rleHist[i].second);
    }
    w.b(havePending);
    w.u64(pendingKey);
    w.u32(pendingClass);
    w.b(pendingHit);
}

void
RunLengthPredictor::loadState(StateReader &r)
{
    const std::uint64_t savedSlots = r.u64();
    if (savedSlots != table.capacity())
        tpcp_raise("length-predictor snapshot has ", savedSlots,
                   " slots, table is configured with ",
                   table.capacity());
    const auto maxCls =
        static_cast<std::uint8_t>(phase::numRunLengthClasses - 1);
    table.load(r, [&](Entry &e) {
        e.cls = std::min(r.u8(), maxCls);
        e.lastSeen = std::min(r.u8(), maxCls);
    });
    primed = r.b();
    lastPhase = r.u32();
    runLen = r.u64();
    std::uint64_t n = r.count(4 + 8);
    if (n > rleHist.capacity)
        tpcp_raise("length-predictor snapshot: RLE history of ", n,
                   " entries, observe keeps at most ",
                   rleHist.capacity);
    rleHist.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        PhaseId id = r.u32();
        std::uint64_t len = r.u64();
        rleHist.push({id, len});
    }
    havePending = r.b();
    pendingKey = r.u64();
    pendingClass = std::min(r.u32(),
                            static_cast<std::uint32_t>(maxCls));
    pendingHit = r.b();
}

} // namespace tpcp::pred
