/**
 * @file
 * The fixed-capacity history ring the table predictors index by: the
 * last few unique phase IDs (Markov-N) or completed (phase, run
 * length) runs (RLE-N, TAGE). It lives inline in its predictor, so
 * pushing a phase change never touches the heap. The Last-4 outcome
 * ring of the tables' payload (pred/outcome_payload.hh) is one too.
 */

#ifndef TPCP_PRED_HISTORY_RING_HH
#define TPCP_PRED_HISTORY_RING_HH

#include <array>

#include "common/logging.hh"

namespace tpcp::pred
{

/** The last (at most @p Capacity) values pushed, oldest first. */
template <typename T, unsigned Capacity>
class HistoryRing
{
  public:
    static constexpr unsigned capacity = Capacity;

    unsigned size() const { return n; }

    void
    clear()
    {
        head = 0;
        n = 0;
    }

    /** The @p i-th oldest value. */
    const T &
    operator[](unsigned i) const
    {
        return buf[(head + i) % Capacity];
    }

    /** True when @p v is one of the values held. */
    bool
    contains(const T &v) const
    {
        for (unsigned i = 0; i < n; ++i) {
            if ((*this)[i] == v)
                return true;
        }
        return false;
    }

    /** Appends @p v as the newest value, then drops the oldest values
     * beyond @p limit (at most the capacity). */
    void
    push(const T &v, unsigned limit = Capacity)
    {
        tpcp_assert(limit <= Capacity);
        if (n == Capacity)
            dropOldest();
        buf[(head + n) % Capacity] = v;
        ++n;
        while (n > limit)
            dropOldest();
    }

    /** Storage slot @p s, whatever value it holds. */
    const T &slot(unsigned s) const { return buf[s]; }

  protected:
    // The storage view a checkpoint codec needs (OutcomeRing).

    /** The storage slot of the oldest value. */
    unsigned oldestSlot() const { return head; }

    /** Restores the storage slots, the oldest slot and the size. */
    void
    restore(const std::array<T, Capacity> &slots, unsigned oldest,
            unsigned size)
    {
        tpcp_assert(oldest < Capacity && size <= Capacity);
        buf = slots;
        head = oldest;
        n = size;
    }

  private:
    void
    dropOldest()
    {
        head = (head + 1) % Capacity;
        --n;
    }

    std::array<T, Capacity> buf{};
    unsigned head = 0; ///< slot of the oldest value
    unsigned n = 0;
};

} // namespace tpcp::pred

#endif // TPCP_PRED_HISTORY_RING_HH
