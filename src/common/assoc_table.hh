/**
 * @file
 * A generic set-associative table with LRU replacement.
 *
 * This models the storage of the phase-change prediction tables
 * (8 sets x 4 ways = 32 entries, paper section 5): the Markov/RLE
 * tables, the run-length predictor and TAGE's base table. Lookup is
 * by exact tag. The table also owns what every owner needs around
 * it: the checkpoint codec of its slots and the choice of a
 * fault-injection victim among its valid slots.
 */

#ifndef TPCP_COMMON_ASSOC_TABLE_HH
#define TPCP_COMMON_ASSOC_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace tpcp
{

/**
 * Set-associative LRU table mapping Tag -> Value.
 *
 * Entries are stored in a flat vector of sets x ways slots. LRU is
 * tracked with a monotonically increasing use tick per entry, which is
 * a faithful (if idealized) model of hardware LRU for the small
 * associativities used here.
 */
template <typename Tag, typename Value>
class AssocTable
{
  public:
    /** One table slot. */
    struct Entry
    {
        Tag tag{};
        Value value{};
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    /** Constructs a table of @p sets sets with @p ways ways each. */
    AssocTable(unsigned sets, unsigned ways)
        : numSets_(sets), numWays_(ways),
          slots(static_cast<std::size_t>(sets) * ways)
    {
        tpcp_assert(sets > 0 && ways > 0);
    }

    /** Number of sets. */
    unsigned numSets() const { return numSets_; }

    /** Total capacity in entries. */
    std::size_t capacity() const { return slots.size(); }

    /** Number of valid entries currently stored. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &e : slots)
            n += e.valid ? 1 : 0;
        return n;
    }

    /**
     * Looks up an exact tag in @p set. Returns the entry (without
     * updating LRU state) or nullptr on miss.
     */
    Entry *
    find(unsigned set, const Tag &tag)
    {
        tpcp_assert(set < numSets_);
        for (unsigned w = 0; w < numWays_; ++w) {
            Entry &e = slot(set, w);
            if (e.valid && e.tag == tag)
                return &e;
        }
        return nullptr;
    }

    /** Const overload of find(). */
    const Entry *
    find(unsigned set, const Tag &tag) const
    {
        return const_cast<AssocTable *>(this)->find(set, tag);
    }

    /** Marks @p e as most recently used. */
    void touch(Entry &e) { e.lastUse = ++tick; }

    /**
     * Inserts (tag, value) into @p set, evicting the LRU entry if the
     * set is full. Returns the entry written. The new entry becomes
     * most recently used.
     */
    Entry &
    insert(unsigned set, const Tag &tag, const Value &value)
    {
        tpcp_assert(set < numSets_);
        Entry *victim = nullptr;
        for (unsigned w = 0; w < numWays_; ++w) {
            Entry &e = slot(set, w);
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
        victim->tag = tag;
        victim->value = value;
        victim->valid = true;
        victim->lastUse = ++tick;
        return *victim;
    }

    /** Invalidates entry @p e. */
    void
    erase(Entry &e)
    {
        e.valid = false;
        e.value = Value{};
        e.tag = Tag{};
    }

    /**
     * The @p k-th valid entry in slot order (k < size()). A fault
     * injector draws k once, uniformly over the live entries, so the
     * choice does not depend on where they sit in the storage array.
     */
    Entry &
    nthValid(std::size_t k)
    {
        for (auto &e : slots) {
            if (e.valid && k-- == 0)
                return e;
        }
        tpcp_panic("nthValid: only ", size(), " valid entries");
    }

    /**
     * Checkpoint codec: every slot, valid or not, in slot order as
     * valid (b), tag (u64) and use tick (u64) followed by
     * @p payload(value), then the table's LRU tick (u64). The owner
     * writes its own geometry header ahead of it.
     */
    template <typename WritePayload>
    void
    save(StateWriter &w, WritePayload payload) const
    {
        for (const auto &e : slots) {
            w.b(e.valid);
            w.u64(e.tag);
            w.u64(e.lastUse);
            payload(e.value);
        }
        w.u64(tick);
    }

    /** Restores what save() wrote; @p payload(value) reads a slot's
     * value. */
    template <typename ReadPayload>
    void
    load(StateReader &r, ReadPayload payload)
    {
        for (auto &e : slots) {
            e.valid = r.b();
            e.tag = r.u64();
            e.lastUse = r.u64();
            payload(e.value);
        }
        tick = r.u64();
    }

  private:
    Entry &
    slot(unsigned set, unsigned way)
    {
        return slots[static_cast<std::size_t>(set) * numWays_ + way];
    }

    unsigned numSets_;
    unsigned numWays_;
    std::vector<Entry> slots;
    std::uint64_t tick = 0;
};

} // namespace tpcp

#endif // TPCP_COMMON_ASSOC_TABLE_HH
