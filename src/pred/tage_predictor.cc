#include "pred/tage_predictor.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "phase/phase_trace.hh"

namespace tpcp::pred
{

TagePredictor::TagePredictor(const TagePredictorConfig &config)
    : cfg(config),
      base(predictorNumSets(config.baseEntries, config.baseWays,
                            "TAGE base table"),
           config.baseWays)
{
    if (cfg.tableEntries == 0)
        tpcp_raise("TAGE predictor: zero-entry tagged table");
    if (cfg.historyLengths.empty())
        tpcp_raise("TAGE predictor: no tagged-table history lengths");
    if (cfg.historyLengths.size() > maxTables)
        tpcp_raise("TAGE predictor: ", cfg.historyLengths.size(),
                   " tagged tables, at most ", maxTables);
    if (cfg.historyLengths.back() > maxHistory)
        tpcp_raise("TAGE predictor: history of ",
                   cfg.historyLengths.back(), " runs, at most ",
                   maxHistory);
    for (std::size_t i = 1; i < cfg.historyLengths.size(); ++i) {
        if (cfg.historyLengths[i] <= cfg.historyLengths[i - 1])
            tpcp_raise("TAGE predictor: history lengths must be "
                       "strictly increasing, got ",
                       cfg.historyLengths[i - 1], " then ",
                       cfg.historyLengths[i]);
    }
    if (cfg.tagBits < 1 || cfg.tagBits > 16)
        tpcp_raise("TAGE predictor: tag width ", cfg.tagBits,
                   " outside 1..16");
    if (cfg.confBits < 1 || cfg.confBits > 8 ||
        cfg.usefulBits < 1 || cfg.usefulBits > 8)
        tpcp_raise("TAGE predictor: counter width outside 1..8");
    if (cfg.usefulHalvePeriod == 0)
        tpcp_raise("TAGE predictor: useful-halving period is zero");

    TaggedEntry blank;
    blank.conf = SatCounter(cfg.confBits, 0);
    blank.useful = SatCounter(cfg.usefulBits, 0);
    tables.assign(cfg.historyLengths.size(),
                  std::vector<TaggedEntry>(cfg.tableEntries, blank));
    if (cfg.rleAssist)
        rle = std::make_unique<ChangePredictor>(
            ChangePredictorConfig::rle(2));
}

void
TagePredictor::updateIndex()
{
    const std::uint16_t tagMask = static_cast<std::uint16_t>(
        (1u << cfg.tagBits) - 1);
    for (std::size_t t = 0; t < tables.size(); ++t) {
        // Fold the table's last hist_len completed (phase, class)
        // runs and the current phase into one hash; salting with the
        // length keeps the tables' index spaces decorrelated even
        // when the histories they see are identical (short traces).
        const unsigned hist_len = cfg.historyLengths[t];
        std::uint64_t h = 0x9e3779b97f4a7c15ULL ^
                          (static_cast<std::uint64_t>(hist_len) *
                           0x100000001b3ULL);
        const unsigned n = history.size();
        for (unsigned i = n > hist_len ? n - hist_len : 0; i < n; ++i) {
            h = mix64(h ^ (static_cast<std::uint64_t>(
                               history[i].first) + 1));
            h = mix64(h ^ (history[i].second + 0x51ULL));
        }
        h = mix64(h ^ (static_cast<std::uint64_t>(lastPhase) + 1));
        index[t] = static_cast<std::uint32_t>(h % cfg.tableEntries);
        tagOf[t] = static_cast<std::uint16_t>(
            mix64(h ^ 0xa24baed4963ee407ULL) & tagMask);
    }
    baseSet = static_cast<std::uint32_t>(
        mix64(static_cast<std::uint64_t>(lastPhase) + 1) %
        base.numSets());
}

TagePredictor::Lookup
TagePredictor::lookup() const
{
    // Walking short-to-long leaves the provider as the longest match
    // and alt as the second longest.
    Lookup l;
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const TaggedEntry &e = tables[i][index[i]];
        if (e.valid && e.tag == tagOf[i]) {
            l.alt = l.provider;
            l.provider = static_cast<int>(i);
        }
    }
    const auto *slot =
        base.find(baseSet, static_cast<std::uint64_t>(lastPhase));
    l.baseEntry = slot ? &slot->value : nullptr;
    return l;
}

const TagePredictor::TaggedEntry *
TagePredictor::chosenTagged(const Lookup &l) const
{
    if (l.provider < 0)
        return nullptr;
    const TaggedEntry &prov = tables[l.provider][index[l.provider]];
    // Alt-on-weak: a freshly allocated, never-confirmed provider
    // (weak confidence, no usefulness yet) defers to the longest
    // older match — or the base when there is none — while the
    // adaptive vote says weak providers are not to be trusted. The
    // vote is trained on provider/alternate disagreements, so each
    // workload settles its own policy.
    if (prov.conf.value() <= 1 && prov.useful.value() == 0 &&
        useAltOnNa.value() >= 8) {
        if (l.alt < 0)
            return nullptr;
        return &tables[l.alt][index[l.alt]];
    }
    return &prov;
}

void
TagePredictor::appendBaseCandidates(const BaseValue &b,
                                    CandidateSet &out) const
{
    // Most recent outcome first; then ring recency and the sorted
    // frequency summary, in the order the adaptive view vote
    // prefers. The two orderings reproduce the paper's Last-4 and
    // Top-4 payload views, and the vote learns per workload which
    // one pays.
    out.pushUnique(b.last);
    const auto items = b.freq.ranked();
    const std::uint64_t v = b.view.value();
    const bool freqFirst =
        v >= 7 ? true : v == 0 ? false : viewVote.value() >= 32;
    // Blend recency into the frequency rank: each ring position is
    // worth a recency bonus on top of the observed count, weighted
    // toward whichever view the votes prefer.
    std::array<std::pair<PhaseId, double>, 12> scored{};
    unsigned n = 0;
    const double recencyWeight = freqFirst ? 2.0 : 16.0;
    for (unsigned k = 0; k < b.freq.size(); ++k)
        scored[n++] = {items[k].first,
                       static_cast<double>(items[k].second)};
    for (unsigned k = 0; k < b.ring.size(); ++k) {
        PhaseId c = b.ring[b.ring.size() - 1 - k];
        double bonus = recencyWeight * (4.0 - k);
        bool found = false;
        for (unsigned j = 0; j < n; ++j) {
            if (scored[j].first == c) {
                scored[j].second += bonus;
                found = true;
                break;
            }
        }
        if (!found)
            scored[n++] = {c, bonus};
    }
    rankDescending(scored, n);
    for (unsigned k = 0; k < n; ++k)
        out.pushUnique(scored[k].first);
}

CandidateSet
TagePredictor::assembleCandidates(const Lookup &l,
                                  const TaggedEntry &chosen,
                                  bool ring_early) const
{
    CandidateSet out{chosen.outcome};
    // Every other matching tagged entry is still context-backed
    // evidence; rank their outcomes (longest history first) ahead
    // of the filler.
    // The context-first order leans harder on tagged evidence and
    // takes a second extra entry; the base-first order keeps room
    // for the Markov-1 filler.
    const unsigned maxOthers = ring_early ? 2 : 1;
    unsigned others = 0;
    for (int j = static_cast<int>(tables.size()) - 1;
         j >= 0 && others < maxOthers; --j) {
        const TaggedEntry &t = tables[j][index[j]];
        if (&t != &chosen && t.valid && t.tag == tagOf[j]) {
            out.pushUnique(t.outcome);
            ++others;
        }
    }
    for (int pass = 0; pass < 2; ++pass) {
        if ((pass == 0) == ring_early) {
            for (unsigned k = 0; k < chosen.ring.size(); ++k)
                out.pushUnique(
                    chosen.ring[chosen.ring.size() - 1 - k]);
        } else if (l.baseEntry) {
            appendBaseCandidates(*l.baseEntry, out);
        }
    }
    return out;
}

ChangePrediction
TagePredictor::predict() const
{
    if (!primed)
        return {};
    if (rle) {
        ChangePrediction rp = rle->predict();
        if (rp.tableHit && rp.confident)
            return rp;
    }
    return ownPrediction(nullptr);
}

ChangePrediction
TagePredictor::ownPrediction(bool *alarm_out) const
{
    ChangePrediction out;
    Lookup l = lookup();
    const TaggedEntry *e = chosenTagged(l);
    if (!e && !l.baseEntry)
        return out;
    out.tableHit = true;
    // The chosen tagged entry supplies the primary; the base entry,
    // which sees every change out of this phase and so has the
    // best-trained last-4 ring, backfills the candidate list. A
    // tagged-table candidate set alone is too thin — each entry only
    // trains when its exact history recurs.
    std::uint64_t conf;
    std::uint32_t expect_len;
    bool len_stable;
    if (e) {
        out.primary = e->outcome;
        conf = e->conf.value();
        expect_len = e->lastLen;
        len_stable = e->lenStable;
        if (cfg.acceptAnyRule)
            out.candidates = assembleCandidates(
                l, *e, ringFirstVote.value() >= 128);
        else
            out.candidates.push_back(e->outcome);
    } else {
        const BaseValue &b = *l.baseEntry;
        out.primary = b.last;
        conf = b.conf.value();
        expect_len = b.lastLen;
        len_stable = b.lenStable;
        appendBaseCandidates(b, out.candidates);
    }
    if (!cfg.acceptAnyRule)
        out.candidates.truncate(1);
    // The history index carries no current-run position, so the raw
    // table hit would confidently alarm "change next interval" from
    // the first interval of every run. The imminence gate defers
    // confidence until the run has reached the length last seen out
    // of this context — this is what makes the predictor usable as
    // the AdaptController's anticipation source, where a mid-run
    // false alarm pre-configures the machine for the wrong phase.
    // Under rleAssist the assists are held to a higher bar. A base
    // alarm only adds signal when this phase has exactly one
    // successor on record (a deterministic Markov edge) — its
    // phase-keyed lastLen mixes every context reaching this phase.
    // And assists stick to length-1 runs: a single remembered
    // terminal length gets fragile as runs lengthen (the reason the
    // paper's RLE tables stop at short lengths), while a length-1
    // alarm is decided entirely by the history context — and covers
    // exactly the runs where a reactive controller has zero lead
    // time.
    const bool pure_base =
        !e && l.baseEntry && l.baseEntry->freq.size() == 1;
    const bool imminent = expect_len != 0 &&
                          runLen == expect_len && len_stable &&
                          (!rle || ((e || pure_base) &&
                                    expect_len == 1));
    const bool alarm = conf >= cfg.confThreshold && imminent;
    if (alarm_out)
        *alarm_out = alarm;
    out.confident =
        cfg.confThreshold == 0 ||
        (alarm && (!rle || assistVote.value() >= 8));
    out.analog = static_cast<double>(conf);
    return out;
}

void
TagePredictor::trainOnChange(PhaseId actual)
{
    Lookup l = lookup();
    const TaggedEntry *chosen = chosenTagged(l);

    PhaseId finalPrimary = invalidPhaseId;
    if (chosen)
        finalPrimary = chosen->outcome;
    else if (l.baseEntry)
        finalPrimary = l.baseEntry->last;
    const bool finalCorrect = finalPrimary == actual;

    // Candidate-order vote: compose the full accept-any list both
    // ways (all state still pre-update here) and train toward the
    // order that would have held this outcome.
    if (chosen && l.baseEntry && cfg.acceptAnyRule) {
        bool hit[2] = {false, false};
        for (int order = 0; order < 2; ++order)
            hit[order] = assembleCandidates(l, *chosen, order == 1)
                             .contains(actual);
        if (hit[0] != hit[1]) {
            if (hit[1])
                ringFirstVote.increment();
            else
                ringFirstVote.decrement();
        }
    }

    // Provider update (confidence hysteresis + last-4 ring) and the
    // useful bookkeeping against the alternate prediction.
    if (l.provider >= 0) {
        TaggedEntry &prov = tables[l.provider][index[l.provider]];
        PhaseId altPrimary = invalidPhaseId;
        if (l.alt >= 0)
            altPrimary = tables[l.alt][index[l.alt]].outcome;
        else if (l.baseEntry)
            altPrimary = l.baseEntry->last;
        const bool provCorrect = prov.outcome == actual;
        const bool altCorrect = altPrimary == actual;
        if (provCorrect != altCorrect) {
            if (provCorrect)
                prov.useful.increment();
            else
                prov.useful.decrement();
            if (prov.conf.value() <= 1 &&
                prov.useful.value() == 0) {
                if (altCorrect)
                    useAltOnNa.increment();
                else
                    useAltOnNa.decrement();
            }
        }
        if (provCorrect) {
            prov.conf.increment();
        } else {
            prov.conf.decrement();
            if (prov.conf.saturatedLow())
                prov.outcome = actual;
        }
        prov.ring.pushUnique(actual);
        prov.lenStable = prov.lastLen == runLen;
        prov.lastLen = static_cast<std::uint32_t>(runLen);
    }

    // Base (Markov-1) component always trains.
    auto *slot =
        base.find(baseSet, static_cast<std::uint64_t>(lastPhase));
    if (slot) {
        BaseValue &b = slot->value;
        // View vote: score the pre-update Last-4 and Top-4 views
        // against this change; train the vote when exactly one of
        // them would have accepted the outcome.
        const bool last4Hit =
            b.last == actual || b.ring.contains(actual);
        bool top4Hit = false;
        const auto items = b.freq.ranked();
        for (unsigned k = 0; k < b.freq.size() && k < 4; ++k)
            top4Hit = top4Hit || items[k].first == actual;
        if (last4Hit != top4Hit) {
            if (top4Hit) {
                b.view.increment();
                viewVote.increment();
            } else {
                b.view.decrement();
                viewVote.decrement();
            }
        }
        if (b.last == actual)
            b.conf.increment();
        else
            b.conf.decrement();
        b.record(actual);
        b.lenStable = b.lastLen == runLen;
        b.lastLen = static_cast<std::uint32_t>(runLen);
        base.touch(*slot);
    } else {
        BaseValue fresh;
        fresh.record(actual);
        fresh.conf = SatCounter(cfg.confBits, 1);
        fresh.lastLen = static_cast<std::uint32_t>(runLen);
        base.insert(baseSet, static_cast<std::uint64_t>(lastPhase),
                    fresh);
    }

    // Mispredict: allocate one entry in a longer-history table whose
    // slot is not useful; age every longer slot when all refuse.
    if (!finalCorrect &&
        l.provider + 1 < static_cast<int>(tables.size())) {
        unsigned allocated = 0;
        for (std::size_t j = l.provider + 1;
             j < tables.size() && allocated < 1; ++j) {
            TaggedEntry &e = tables[j][index[j]];
            if (!e.valid || e.useful.value() == 0) {
                e.valid = true;
                e.tag = tagOf[j];
                e.outcome = actual;
                e.ring = OutcomeRing{};
                e.ring.pushUnique(actual);
                e.conf = SatCounter(cfg.confBits, 1);
                e.useful = SatCounter(cfg.usefulBits, 0);
                e.lastLen = static_cast<std::uint32_t>(runLen);
                ++allocated;
            }
        }
        if (allocated == 0) {
            for (std::size_t j = l.provider + 1; j < tables.size();
                 ++j)
                tables[j][index[j]].useful.decrement();
        }
    }

    ++changesSeen;
    if (changesSeen % cfg.usefulHalvePeriod == 0) {
        // Periodic graceful aging so stale useful bits cannot pin
        // dead entries forever.
        for (auto &t : tables) {
            for (auto &e : t)
                e.useful.set(e.useful.value() >> 1);
        }
    }
}

std::optional<ChangeOutcome>
TagePredictor::observe(PhaseId actual)
{
    if (!primed) {
        primed = true;
        lastPhase = actual;
        runLen = 1;
        updateIndex();
        if (rle)
            rle->observe(actual);
        return std::nullopt;
    }
    if (actual == lastPhase) {
        // The run outlived TAGE's expected length: if the imminence
        // alarm was up this interval it was a false alarm, so
        // shadow-train the assist vote down. (The RLE component
        // cannot false-alarm this way — its key holds the exact
        // current length, so an over-long run leaves its table.)
        if (rle) {
            bool alarm = false;
            ownPrediction(&alarm);
            if (alarm)
                assistVote.decrement();
        }
        ++runLen;
        if (rle)
            rle->observe(actual);
        return std::nullopt;
    }

    // A phase change: score the standing prediction, then train on
    // the revealed outcome. The index state (completed runs + the
    // changing phase) is untouched by run continuation, so this
    // lookup sees exactly what predict() saw.
    ChangeOutcome rec;
    ChangePrediction pred = predict();
    rec.tableHit = pred.tableHit;
    rec.confident = pred.confident;
    rec.primaryCorrect = pred.tableHit && pred.primary == actual;
    rec.anyCorrect = pred.tableHit && pred.matches(actual);

    // Shadow-score TAGE's own alarm for this interval (state still
    // pre-update): a correctly timed alarm naming the right phase
    // earns the assist vote, a wrong-successor alarm loses it just
    // like a false one — pre-configuring for the wrong phase costs
    // the controller the same either way.
    if (rle) {
        bool alarm = false;
        ChangePrediction own = ownPrediction(&alarm);
        if (alarm) {
            if (own.primary == actual)
                assistVote.increment();
            else
                assistVote.decrement();
        }
    }

    trainOnChange(actual);
    if (rle)
        rle->observe(actual);

    history.push({lastPhase, static_cast<std::uint8_t>(
                                 phase::runLengthClass(runLen))},
                 cfg.historyLengths.back());
    lastPhase = actual;
    runLen = 1;
    updateIndex();
    return rec;
}

bool
TagePredictor::injectFault(Rng &rng, bool invalidate)
{
    // Live entries in a fixed order: base first, then the tagged
    // tables short-to-long; one draw picks among them.
    const std::size_t baseLive = base.size();
    std::size_t live = baseLive;
    for (const auto &t : tables) {
        for (const TaggedEntry &e : t)
            live += e.valid ? 1 : 0;
    }
    if (live == 0)
        return false;
    std::size_t k = rng.nextBounded(static_cast<std::uint32_t>(live));
    AssocTable<std::uint64_t, BaseValue>::Entry *b = nullptr;
    TaggedEntry *t = nullptr;
    if (k < baseLive) {
        b = &base.nthValid(k);
    } else {
        k -= baseLive;
        for (auto &table : tables) {
            for (TaggedEntry &e : table) {
                if (!t && e.valid && k-- == 0)
                    t = &e;
            }
        }
    }
    if (invalidate) {
        // ECC model: the error is detected and the entry dropped,
        // degrading to a miss that retrains.
        if (b)
            base.erase(*b);
        else
            t->valid = false;
        return true;
    }
    // Raw bit flip in the outcome, tag or confidence field.
    switch (rng.nextBounded(3)) {
      case 0:
        if (b)
            b->value.last ^= PhaseId(1) << rng.nextBounded(32);
        else
            t->outcome ^= PhaseId(1) << rng.nextBounded(32);
        break;
      case 1:
        if (b)
            b->tag ^= std::uint64_t(1) << rng.nextBounded(32);
        else
            t->tag = static_cast<std::uint16_t>(
                t->tag ^ (1u << rng.nextBounded(cfg.tagBits)));
        break;
      default: {
        SatCounter &c = b ? b->value.conf : t->conf;
        c.set(c.value() ^
              (std::uint64_t(1) << rng.nextBounded(cfg.confBits)));
        break;
      }
    }
    return true;
}

void
TagePredictor::saveState(StateWriter &w) const
{
    w.u64(base.capacity());
    w.u32(static_cast<std::uint32_t>(tables.size()));
    w.u32(cfg.tableEntries);
    base.save(w, [&](const BaseValue &b) {
        b.save(w, OutcomeRing::Head::NextWrite);
        w.u8(static_cast<std::uint8_t>(b.conf.value()));
        w.u8(static_cast<std::uint8_t>(b.view.value()));
        w.u32(b.lastLen);
        w.b(b.lenStable);
    });
    for (const auto &t : tables) {
        for (const TaggedEntry &e : t) {
            w.b(e.valid);
            w.u32(e.tag);
            w.u32(e.outcome);
            e.ring.save(w, OutcomeRing::Head::NextWrite);
            w.u8(static_cast<std::uint8_t>(e.conf.value()));
            w.u8(static_cast<std::uint8_t>(e.useful.value()));
            w.u32(e.lastLen);
            w.b(e.lenStable);
        }
    }
    w.u8(static_cast<std::uint8_t>(useAltOnNa.value()));
    w.u8(static_cast<std::uint8_t>(viewVote.value()));
    w.u8(static_cast<std::uint8_t>(ringFirstVote.value()));
    w.b(primed);
    w.u32(lastPhase);
    w.u64(runLen);
    w.u64(changesSeen);
    w.u64(history.size());
    for (unsigned i = 0; i < history.size(); ++i) {
        w.u32(history[i].first);
        w.u8(history[i].second);
    }
    if (rle) {
        w.u8(static_cast<std::uint8_t>(assistVote.value()));
        rle->saveState(w);
    }
}

void
TagePredictor::loadState(StateReader &r)
{
    const std::uint64_t savedBase = r.u64();
    const std::uint32_t savedTables = r.u32();
    const std::uint32_t savedEntries = r.u32();
    if (savedBase != base.capacity() ||
        savedTables != tables.size() ||
        savedEntries != cfg.tableEntries)
        tpcp_raise("TAGE snapshot geometry ", savedBase, "/",
                   savedTables, "/", savedEntries,
                   " does not match the configured ",
                   base.capacity(), "/", tables.size(), "/",
                   cfg.tableEntries);
    const std::uint16_t tagMask = static_cast<std::uint16_t>(
        (1u << cfg.tagBits) - 1);
    base.load(r, [&](BaseValue &b) {
        b.load(r, OutcomeRing::Head::NextWrite);
        b.conf = SatCounter(cfg.confBits, r.u8());
        b.view = SatCounter(3, r.u8());
        b.lastLen = r.u32();
        b.lenStable = r.b();
    });
    for (auto &t : tables) {
        for (TaggedEntry &e : t) {
            e.valid = r.b();
            e.tag = static_cast<std::uint16_t>(r.u32() & tagMask);
            e.outcome = r.u32();
            e.ring.load(r, OutcomeRing::Head::NextWrite);
            e.conf = SatCounter(cfg.confBits, r.u8());
            e.useful = SatCounter(cfg.usefulBits, r.u8());
            e.lastLen = r.u32();
            e.lenStable = r.b();
        }
    }
    useAltOnNa = SatCounter(4, r.u8());
    viewVote = SatCounter(6, r.u8());
    ringFirstVote = SatCounter(8, r.u8());
    primed = r.b();
    lastPhase = r.u32();
    runLen = r.u64();
    changesSeen = r.u64();
    std::uint64_t n = r.count(4 + 1);
    if (n > cfg.historyLengths.back())
        tpcp_raise("TAGE snapshot: history of ", n,
                   " runs exceeds the longest table's ",
                   cfg.historyLengths.back());
    history.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        PhaseId id = r.u32();
        std::uint8_t cls = r.u8();
        history.push({id, std::min<std::uint8_t>(
                              cls, phase::numRunLengthClasses - 1)});
    }
    updateIndex();
    if (rle) {
        assistVote = SatCounter(4, r.u8());
        rle->loadState(r);
    }
}

} // namespace tpcp::pred
