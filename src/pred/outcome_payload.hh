/**
 * @file
 * The outcome payload of the phase-change tables (paper sections
 * 5.2.2-5.2.3 and 6.1): the last outcome, a Last-4 ring of unique
 * outcomes and a Top-N frequency summary. The Markov/RLE tables and
 * TAGE's base table keep all three, TAGE's tagged tables the ring.
 * Each part has one checkpoint codec, so every table writes the same
 * bytes for it.
 */

#ifndef TPCP_PRED_OUTCOME_PAYLOAD_HH
#define TPCP_PRED_OUTCOME_PAYLOAD_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/state_io.hh"
#include "common/types.hh"
#include "pred/history_ring.hh"

namespace tpcp::pred
{

/** Sorts the first @p n of @p items by descending .second, ties kept
 * in order: a stable insertion sort, which unlike std::stable_sort
 * needs no temporary buffer. */
template <typename Item, std::size_t N>
void
rankDescending(std::array<Item, N> &items, unsigned n)
{
    for (unsigned i = 1; i < n; ++i) {
        const Item item = items[i];
        unsigned j = i;
        for (; j > 0 && items[j - 1].second < item.second; --j)
            items[j] = items[j - 1];
        items[j] = item;
    }
}

/** The last 4 unique outcomes, oldest first. */
class OutcomeRing : public HistoryRing<PhaseId, 4>
{
  public:
    /** What a checkpoint's head byte names: the oldest slot (the
     * Markov/RLE tables) or the slot written next (TAGE). */
    enum class Head
    {
        Oldest,
        NextWrite,
    };

    /** Appends @p id unless the ring holds it; a full ring drops its
     * oldest outcome. */
    void
    pushUnique(PhaseId id)
    {
        if (!contains(id))
            push(id);
    }

    /** Writes the 4 slots (u32), the size (u8) and the head (u8). */
    void
    save(StateWriter &w, Head head) const
    {
        for (unsigned s = 0; s < capacity; ++s)
            w.u32(slot(s));
        w.u8(static_cast<std::uint8_t>(size()));
        w.u8(static_cast<std::uint8_t>(
            head == Head::Oldest ? oldestSlot()
                                 : (oldestSlot() + size()) % capacity));
    }

    /** Reads what save() wrote; the size is clamped to 4 and the
     * head taken modulo 4. */
    void
    load(StateReader &r, Head head)
    {
        std::array<PhaseId, capacity> slots{};
        for (PhaseId &p : slots)
            p = r.u32();
        const unsigned n = std::min<unsigned>(r.u8(), capacity);
        const unsigned h = r.u8() % capacity;
        restore(slots,
                head == Head::Oldest ? h : (h + capacity - n) % capacity,
                n);
    }
};

/** The Top-N frequency summary: up to 8 (outcome, count) items. */
class OutcomeSummary
{
  public:
    static constexpr unsigned capacity = 8;
    using Item = std::pair<PhaseId, std::uint32_t>;

    unsigned size() const { return n; }

    /** Counts @p id. A new outcome takes the next free item or, when
     * the summary is full, replaces the first least frequent one. */
    void
    bump(PhaseId id)
    {
        for (unsigned i = 0; i < n; ++i) {
            if (items[i].first == id) {
                ++items[i].second;
                return;
            }
        }
        if (n < capacity) {
            items[n++] = {id, 1};
            return;
        }
        unsigned victim = 0;
        for (unsigned i = 1; i < capacity; ++i) {
            if (items[i].second < items[victim].second)
                victim = i;
        }
        items[victim] = {id, 1};
    }

    /** The first size() items, most frequent first; ties keep slot
     * order. */
    std::array<Item, capacity>
    ranked() const
    {
        auto out = items;
        rankDescending(out, n);
        return out;
    }

    /** Writes the 8 items (u32 outcome, u32 count) and the size
     * (u8); load() clamps the size to 8. */
    void
    save(StateWriter &w) const
    {
        for (const auto &[id, count] : items) {
            w.u32(id);
            w.u32(count);
        }
        w.u8(n);
    }

    void
    load(StateReader &r)
    {
        for (auto &[id, count] : items) {
            id = r.u32();
            count = r.u32();
        }
        n = std::min<std::uint8_t>(r.u8(), capacity);
    }

  private:
    std::array<Item, capacity> items{};
    std::uint8_t n = 0;
};

/** A Markov/RLE table entry's and a TAGE base entry's outcomes. */
struct OutcomePayload
{
    PhaseId last = invalidPhaseId;
    OutcomeRing ring;
    OutcomeSummary freq;

    /** Records @p actual as the newest outcome in all three parts. */
    void
    record(PhaseId actual)
    {
        last = actual;
        ring.pushUnique(actual);
        freq.bump(actual);
    }

    /** Writes the last outcome (u32), the ring and the summary. */
    void
    save(StateWriter &w, OutcomeRing::Head head) const
    {
        w.u32(last);
        ring.save(w, head);
        freq.save(w);
    }

    void
    load(StateReader &r, OutcomeRing::Head head)
    {
        last = r.u32();
        ring.load(r, head);
        freq.load(r);
    }
};

} // namespace tpcp::pred

#endif // TPCP_PRED_OUTCOME_PAYLOAD_HH
