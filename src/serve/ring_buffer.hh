/**
 * @file
 * Lock-free bounded single-producer/single-consumer byte ring.
 *
 * The streaming service's transport: each producer owns one ring and
 * pushes length-prefixed packet frames; the service loop is the only
 * consumer. Progress needs no locks — the producer publishes frames
 * by storing the write index with release ordering after the bytes
 * are in place, and the consumer acquires it before reading, so a
 * frame is either fully visible or not visible at all (no torn
 * frames). Head and tail live on their own cache lines to keep the
 * two sides from false-sharing, and each side caches the opposite
 * index so the uncontended fast path touches only its own line.
 *
 * A full ring makes tryPush() return false — backpressure the
 * producer must handle visibly (park and retry, or count a drop);
 * the ring itself never discards bytes silently.
 */

#ifndef TPCP_SERVE_RING_BUFFER_HH
#define TPCP_SERVE_RING_BUFFER_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bitops.hh"
#include "common/status.hh"

namespace tpcp::serve
{

/** A bounded SPSC ring of length-prefixed byte frames. */
class SpscRing
{
  public:
    /** Bytes of framing overhead per pushed frame. */
    static constexpr std::size_t kFrameOverhead =
        sizeof(std::uint32_t);

    /**
     * @param capacity_bytes usable buffer size; rounded up to the
     *        next power of two, minimum 64. A frame occupies
     *        kFrameOverhead + len bytes and must fit the ring whole.
     *        Raises tpcp::Error when no power of two in a size_t is
     *        that large.
     */
    explicit SpscRing(std::size_t capacity_bytes)
    {
        constexpr std::size_t kMaxCap = ~(~std::size_t(0) >> 1);
        if (capacity_bytes > kMaxCap)
            tpcp_raise("ring capacity of ", capacity_bytes,
                       " bytes cannot be rounded up to a power of two");
        std::size_t cap = 64;
        while (cap < capacity_bytes)
            cap <<= 1;
        buf.resize(cap);
        mask = cap - 1;
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    std::size_t capacity() const { return buf.size(); }

    /**
     * Producer side: appends one frame of @p len bytes. Returns
     * false when the ring lacks space (backpressure) — the frame is
     * not partially written. Raises tpcp::Error for frames that can
     * never fit.
     */
    bool
    tryPush(const void *frame, std::uint32_t len)
    {
        const std::size_t need = kFrameOverhead + len;
        if (need > capacity())
            tpcp_raise("ring frame of ", len,
                       " bytes exceeds ring capacity ", capacity());
        const std::uint64_t tail =
            tail_.load(std::memory_order_relaxed);
        if (capacity() - (tail - cachedHead) < need) {
            cachedHead = head_.load(std::memory_order_acquire);
            if (capacity() - (tail - cachedHead) < need)
                return false;
        }
        copyIn(tail, &len, kFrameOverhead);
        copyIn(tail + kFrameOverhead, frame, len);
        tail_.store(tail + need, std::memory_order_release);
        return true;
    }

    /**
     * Consumer side: pops the oldest frame into @p out (resized to
     * the frame length). Returns false when the ring is empty.
     */
    bool
    tryPop(std::vector<std::uint8_t> &out)
    {
        const std::uint64_t head =
            head_.load(std::memory_order_relaxed);
        if (cachedTail - head < kFrameOverhead) {
            cachedTail = tail_.load(std::memory_order_acquire);
            if (cachedTail - head < kFrameOverhead)
                return false;
        }
        std::uint32_t len = 0;
        copyOut(head, &len, kFrameOverhead);
        // The producer publishes only whole frames, so the length
        // prefix always has its payload behind it; anything else
        // means the ring memory itself was corrupted.
        if (kFrameOverhead + len > cachedTail - head)
            tpcp_raise("corrupt ring frame: length prefix ", len,
                       " overruns the published bytes");
        out.resize(len);
        copyOut(head + kFrameOverhead, out.data(), len);
        head_.store(head + kFrameOverhead + len,
                    std::memory_order_release);
        return true;
    }

    /** True when no published frame is pending (consumer side). */
    bool
    empty() const
    {
        return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire);
    }

  private:
    /** Copies @p n bytes into the ring at free-running index @p pos,
     * splitting across the wrap point when needed. */
    void
    copyIn(std::uint64_t pos, const void *src, std::size_t n)
    {
        if (n == 0)
            return;
        const std::size_t at = static_cast<std::size_t>(pos) & mask;
        const std::size_t first = std::min(n, capacity() - at);
        std::memcpy(&buf[at], src, first);
        if (first < n)
            std::memcpy(buf.data(),
                        static_cast<const std::uint8_t *>(src) + first,
                        n - first);
    }

    void
    copyOut(std::uint64_t pos, void *dst, std::size_t n) const
    {
        if (n == 0)
            return;
        const std::size_t at = static_cast<std::size_t>(pos) & mask;
        const std::size_t first = std::min(n, capacity() - at);
        std::memcpy(dst, &buf[at], first);
        if (first < n)
            std::memcpy(static_cast<std::uint8_t *>(dst) + first,
                        buf.data(), n - first);
    }

    std::vector<std::uint8_t> buf;
    std::size_t mask = 0;

    /** Consumer position (bytes consumed, free-running). */
    alignas(64) std::atomic<std::uint64_t> head_{0};
    /** Producer-local snapshot of head_ (producer cache line). */
    alignas(64) std::uint64_t cachedHead = 0;
    /** Producer position (bytes published, free-running). */
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    /** Consumer-local snapshot of tail_ (consumer cache line). */
    alignas(64) std::uint64_t cachedTail = 0;
};

} // namespace tpcp::serve

#endif // TPCP_SERVE_RING_BUFFER_HH
