#include "pred/change_predictor.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/state_io.hh"

namespace tpcp::pred
{

namespace
{

std::string
payloadName(PayloadView v)
{
    switch (v) {
      case PayloadView::Last:
        return "";
      case PayloadView::Last4:
        return "Last4 ";
      case PayloadView::Top1:
        return "Top1 ";
      case PayloadView::Top4:
        return "Top4 ";
    }
    return "";
}

} // namespace

unsigned
predictorNumSets(unsigned entries, unsigned ways, const char *what)
{
    if (ways == 0 || entries == 0)
        tpcp_raise(what, ": table geometry ", entries, " entries x ",
                   ways, " ways is degenerate");
    if (entries % ways != 0)
        tpcp_raise(what, ": ", entries, " entries is not a multiple "
                   "of ", ways, " ways — ", entries / ways * ways,
                   " entries would silently be usable; pick a "
                   "multiple of the associativity");
    return entries / ways;
}

ChangePredictorConfig
ChangePredictorConfig::markov(unsigned order, PayloadView payload,
                              unsigned entries)
{
    ChangePredictorConfig c;
    c.history = HistoryKind::MarkovUnique;
    c.order = order;
    c.payload = payload;
    c.tableEntries = entries;
    c.removeOnFalseChange = false;
    c.name = payloadName(payload) + "Markov-" +
             std::to_string(order);
    if (entries != 32)
        c.name += " (" + std::to_string(entries) + "e)";
    return c;
}

ChangePredictorConfig
ChangePredictorConfig::rle(unsigned order, PayloadView payload,
                           unsigned entries)
{
    ChangePredictorConfig c;
    c.history = HistoryKind::Rle;
    c.order = order;
    c.payload = payload;
    c.tableEntries = entries;
    // The paper's removal-on-false-change rule applies to the plain
    // RLE predictor; richer payloads keep their learned summaries.
    c.removeOnFalseChange = (payload == PayloadView::Last);
    c.name = payloadName(payload) + "RLE-" + std::to_string(order);
    if (entries != 32)
        c.name += " (" + std::to_string(entries) + "e)";
    return c;
}

ChangePredictor::ChangePredictor(const ChangePredictorConfig &config)
    : cfg(config),
      table(predictorNumSets(config.tableEntries, config.tableWays,
                             "change predictor"),
            config.tableWays),
      numSets(table.numSets())
{
    tpcp_assert(cfg.order >= 1 && cfg.order <= 8);
}

void
ChangePredictor::foldHistory()
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    if (cfg.history == HistoryKind::MarkovUnique) {
        for (unsigned i = 0; i < uniqueHist.size(); ++i)
            h = mix64(h ^ (static_cast<std::uint64_t>(uniqueHist[i]) +
                           1));
    } else {
        // Completed runs first, then the current phase; updateIndex()
        // adds the run length, which encodes *when* within the run.
        for (unsigned i = 0; i < rleHist.size(); ++i) {
            const auto &[id, len] = rleHist[i];
            h = mix64(h ^ (static_cast<std::uint64_t>(id) + 1));
            h = mix64(h ^ (len + 0x51ULL));
        }
        h = mix64(h ^ (static_cast<std::uint64_t>(lastPhase) + 1));
    }
    prefixHash = h;
    updateIndex();
}

void
ChangePredictor::updateIndex()
{
    curHash = cfg.history == HistoryKind::MarkovUnique
                  ? prefixHash
                  : mix64(prefixHash ^ (runLen + 0x51ULL));
    curSet = static_cast<unsigned>(curHash % numSets);
}

CandidateSet
ChangePredictor::topOutcomes(const Entry &e, unsigned n)
{
    // Stable insertion sort by descending count: ties keep summary
    // slot order.
    auto items = e.freq;
    for (unsigned i = 1; i < e.freqCount; ++i) {
        const auto item = items[i];
        unsigned j = i;
        for (; j > 0 && items[j - 1].second < item.second; --j)
            items[j] = items[j - 1];
        items[j] = item;
    }
    CandidateSet out;
    for (unsigned i = 0; i < e.freqCount && i < n; ++i)
        out.push_back(items[i].first);
    return out;
}

void
ChangePredictor::fillPrediction(const Entry &e,
                                ChangePrediction &out) const
{
    out.tableHit = true;
    out.confident = !cfg.useConfidence || e.conf.saturatedHigh();
    switch (cfg.payload) {
      case PayloadView::Last:
        out.primary = e.lastOutcome;
        out.candidates = {e.lastOutcome};
        break;
      case PayloadView::Last4: {
        out.primary = e.lastOutcome;
        for (unsigned i = 0; i < e.ringCount; ++i)
            out.candidates.push_back(e.ring[i]);
        if (out.candidates.empty())
            out.candidates = {e.lastOutcome};
        break;
      }
      case PayloadView::Top1: {
        CandidateSet top = topOutcomes(e, 1);
        out.primary = top.empty() ? e.lastOutcome : *top.begin();
        out.candidates = {out.primary};
        break;
      }
      case PayloadView::Top4: {
        CandidateSet top = topOutcomes(e, 4);
        out.primary = top.empty() ? e.lastOutcome : *top.begin();
        out.candidates = top.empty() ? CandidateSet{e.lastOutcome}
                                     : top;
        break;
      }
    }
}

ChangePrediction
ChangePredictor::predict() const
{
    ChangePrediction out;
    if (!primed)
        return out;
    const auto *entry = table.find(curSet, curHash);
    if (!entry)
        return out;
    fillPrediction(entry->value, out);
    return out;
}

void
ChangePredictor::train(Entry &e, PhaseId actual, bool was_correct)
{
    if (was_correct)
        e.conf.increment();
    else
        e.conf.decrement();

    e.lastOutcome = actual;

    // Last-4 unique ring: only push when not already present.
    bool in_ring = false;
    for (unsigned i = 0; i < e.ringCount; ++i)
        in_ring = in_ring || e.ring[i] == actual;
    if (!in_ring) {
        if (e.ringCount < e.ring.size()) {
            e.ring[e.ringCount++] = actual;
        } else {
            e.ring[e.ringHead] = actual;
            e.ringHead = static_cast<std::uint8_t>(
                (e.ringHead + 1) % e.ring.size());
        }
    }

    // Frequency summary for Top-N.
    for (unsigned i = 0; i < e.freqCount; ++i) {
        if (e.freq[i].first == actual) {
            ++e.freq[i].second;
            return;
        }
    }
    if (e.freqCount < e.freq.size()) {
        e.freq[e.freqCount++] = {actual, 1};
        return;
    }
    // Evict the least frequent summary slot.
    auto min_it = std::min_element(
        e.freq.begin(), e.freq.end(),
        [](const auto &a, const auto &b) {
            return a.second < b.second;
        });
    *min_it = {actual, 1};
}

std::optional<ChangeOutcome>
ChangePredictor::observe(PhaseId actual)
{
    if (!primed) {
        primed = true;
        lastPhase = actual;
        runLen = 1;
        uniqueHist.clear();
        uniqueHist.push(actual);
        foldHistory();
        return std::nullopt;
    }

    auto *entry = table.find(curSet, curHash);
    bool changed = actual != lastPhase;

    if (!changed) {
        ++runLen;
        if (cfg.history == HistoryKind::Rle)
            updateIndex();
        if (entry) {
            // The table predicted a change that did not happen; the
            // last-value fallback would have been right.
            if (cfg.removeOnFalseChange)
                table.erase(*entry);
            else
                entry->value.conf.decrement();
        }
        return std::nullopt;
    }

    ChangeOutcome outcome;
    if (entry) {
        ChangePrediction pred;
        fillPrediction(entry->value, pred);
        outcome.tableHit = true;
        outcome.confident = pred.confident;
        outcome.primaryCorrect = pred.primary == actual;
        outcome.anyCorrect = pred.matches(actual);
        bool correct = (cfg.payload == PayloadView::Last4 ||
                        cfg.payload == PayloadView::Top4)
                           ? outcome.anyCorrect
                           : outcome.primaryCorrect;
        train(entry->value, actual, correct);
        table.touch(*entry);
    } else {
        Entry fresh;
        fresh.lastOutcome = actual;
        fresh.ring[0] = actual;
        fresh.ringCount = 1;
        fresh.freq[0] = {actual, 1};
        fresh.freqCount = 1;
        fresh.conf = SatCounter(cfg.confBits, 0);
        table.insert(curSet, curHash, fresh);
    }

    // ---- History update ----
    if (cfg.history == HistoryKind::MarkovUnique)
        uniqueHist.push(actual, cfg.order);
    else
        rleHist.push({lastPhase, runLen}, cfg.order - 1);
    lastPhase = actual;
    runLen = 1;
    foldHistory();
    return outcome;
}

bool
ChangePredictor::injectFault(Rng &rng, bool invalidate)
{
    // Collect the valid slots so the victim choice is uniform over
    // live entries regardless of where they sit in the storage array.
    std::vector<AssocTable<std::uint64_t, Entry>::Entry *> live;
    table.forEachSlot([&](auto &e) {
        if (e.valid)
            live.push_back(&e);
    });
    if (live.empty())
        return false;
    auto &victim = *live[rng.nextBounded(
        static_cast<std::uint32_t>(live.size()))];
    if (invalidate) {
        // ECC detects the error on access; the entry is dropped and
        // will retrain from scratch (last-value fallback meanwhile).
        table.erase(victim);
        return true;
    }
    switch (rng.nextBounded(3)) {
      case 0: // stored outcome: predicts a wrong next phase
        victim.value.lastOutcome ^=
            PhaseId(1) << rng.nextBounded(32);
        break;
      case 1: // tag: the entry now answers for a different history
        victim.tag ^= std::uint64_t(1) << rng.nextBounded(64);
        break;
      default: // confidence bit
        victim.value.conf.set(victim.value.conf.value() ^ 1);
        break;
    }
    return true;
}

void
ChangePredictor::saveState(StateWriter &w) const
{
    w.u64(table.capacity());
    table.forEachSlot([&](const auto &e) {
        w.b(e.valid);
        w.u64(e.tag);
        w.u64(e.lastUse);
        w.u32(e.value.lastOutcome);
        for (PhaseId p : e.value.ring)
            w.u32(p);
        w.u8(e.value.ringCount);
        w.u8(e.value.ringHead);
        for (const auto &[id, count] : e.value.freq) {
            w.u32(id);
            w.u32(count);
        }
        w.u8(e.value.freqCount);
        w.u64(e.value.conf.value());
    });
    w.u64(table.useTick());
    w.b(primed);
    w.u32(lastPhase);
    w.u64(runLen);
    w.u64(uniqueHist.size());
    for (unsigned i = 0; i < uniqueHist.size(); ++i)
        w.u32(uniqueHist[i]);
    w.u64(rleHist.size());
    for (unsigned i = 0; i < rleHist.size(); ++i) {
        w.u32(rleHist[i].first);
        w.u64(rleHist[i].second);
    }
}

void
ChangePredictor::loadState(StateReader &r)
{
    const std::uint64_t savedSlots = r.u64();
    if (savedSlots != table.capacity())
        tpcp_raise("change-predictor snapshot has ", savedSlots,
                   " slots, table is configured with ",
                   table.capacity());
    table.forEachSlot([&](auto &e) {
        e.valid = r.b();
        e.tag = r.u64();
        e.lastUse = r.u64();
        e.value.lastOutcome = r.u32();
        for (PhaseId &p : e.value.ring)
            p = r.u32();
        e.value.ringCount = std::min<std::uint8_t>(
            r.u8(), static_cast<std::uint8_t>(e.value.ring.size()));
        e.value.ringHead = static_cast<std::uint8_t>(
            r.u8() % e.value.ring.size());
        for (auto &[id, count] : e.value.freq) {
            id = r.u32();
            count = r.u32();
        }
        e.value.freqCount = std::min<std::uint8_t>(
            r.u8(), static_cast<std::uint8_t>(e.value.freq.size()));
        e.value.conf = SatCounter(cfg.confBits, 0);
        e.value.conf.set(r.u64()); // clamps to the counter width
    });
    table.setUseTick(r.u64());
    primed = r.b();
    lastPhase = r.u32();
    runLen = r.u64();
    // observe() keeps the N unique IDs of Markov-N, the N-1
    // completed runs of RLE-N, and the first phase in RLE's otherwise
    // unused unique history; anything longer is no state a run
    // reaches, and would be folded into every later index.
    const bool markov = cfg.history == HistoryKind::MarkovUnique;
    const std::uint64_t maxUnique = markov ? cfg.order : 1;
    const std::uint64_t maxRuns = markov ? 0 : cfg.order - 1;
    std::uint64_t n = r.count(4);
    if (n > maxUnique)
        tpcp_raise("change-predictor snapshot: unique history of ", n,
                   " entries, ", cfg.name, " keeps at most ",
                   maxUnique);
    uniqueHist.clear();
    for (std::uint64_t i = 0; i < n; ++i)
        uniqueHist.push(r.u32());
    n = r.count(4 + 8);
    if (n > maxRuns)
        tpcp_raise("change-predictor snapshot: RLE history of ", n,
                   " entries, ", cfg.name, " keeps at most ", maxRuns);
    rleHist.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        PhaseId id = r.u32();
        std::uint64_t len = r.u64();
        rleHist.push({id, len});
    }
    foldHistory();
}

} // namespace tpcp::pred
