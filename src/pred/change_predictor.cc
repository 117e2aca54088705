#include "pred/change_predictor.hh"

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
            config.tableWays)
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
    curSet = static_cast<unsigned>(curHash % table.numSets());
}

CandidateSet
ChangePredictor::topOutcomes(const Entry &e, unsigned n)
{
    const auto items = e.freq.ranked();
    CandidateSet out;
    for (unsigned i = 0; i < e.freq.size() && i < n; ++i)
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
        out.primary = e.last;
        out.candidates = {e.last};
        break;
      case PayloadView::Last4: {
        // The ring's slot order, as the hardware would read it out.
        out.primary = e.last;
        for (unsigned s = 0; s < e.ring.size(); ++s)
            out.candidates.push_back(e.ring.slot(s));
        if (out.candidates.empty())
            out.candidates = {e.last};
        break;
      }
      case PayloadView::Top1:
      case PayloadView::Top4: {
        CandidateSet top = topOutcomes(
            e, cfg.payload == PayloadView::Top1 ? 1 : 4);
        out.primary = top.empty() ? e.last : *top.begin();
        out.candidates = top.empty() ? CandidateSet{e.last} : top;
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
        if (acceptAny() ? outcome.anyCorrect : outcome.primaryCorrect)
            entry->value.conf.increment();
        else
            entry->value.conf.decrement();
        entry->value.record(actual);
        table.touch(*entry);
    } else {
        Entry fresh;
        fresh.record(actual);
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
    const std::size_t live = table.size();
    if (live == 0)
        return false;
    auto &victim = table.nthValid(
        rng.nextBounded(static_cast<std::uint32_t>(live)));
    if (invalidate) {
        // ECC detects the error on access; the entry is dropped and
        // will retrain from scratch (last-value fallback meanwhile).
        table.erase(victim);
        return true;
    }
    switch (rng.nextBounded(3)) {
      case 0: // stored outcome: predicts a wrong next phase
        victim.value.last ^=
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
    table.save(w, [&](const Entry &e) {
        e.save(w, OutcomeRing::Head::Oldest);
        w.u64(e.conf.value());
    });
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
    table.load(r, [&](Entry &e) {
        e.load(r, OutcomeRing::Head::Oldest);
        e.conf = SatCounter(cfg.confBits, 0);
        e.conf.set(r.u64()); // clamps to the counter width
    });
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
