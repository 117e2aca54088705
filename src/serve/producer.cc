#include "serve/producer.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/rng.hh"
#include "common/status.hh"
#include "phase/accumulator_table.hh"
#include "serve/packet.hh"

namespace tpcp::serve
{

EncodedStream
encodeProfileStream(const trace::IntervalProfile &prof,
                    unsigned num_counters, std::size_t max_packets)
{
    const std::size_t dim = prof.dimIndex(num_counters);
    std::size_t n = prof.numIntervals();
    if (max_packets != 0 && max_packets < n)
        n = max_packets;
    EncodedStream stream(n);
    for (std::size_t i = 0; i < n; ++i) {
        const trace::IntervalRecord &rec = prof.interval(i);
        encodePacket(stream[i], 0, i, prof.counters(i, dim),
                     num_counters, rec.accumTotal, rec.cpi);
    }
    return stream;
}

EncodedStream
encodeSyntheticStream(std::uint64_t stream_seed, std::size_t packets,
                      unsigned num_counters)
{
    tpcp_assert(packets > 0, "synthetic stream needs >= 1 packet");
    // A few phase "shapes" (distinct working sets of branch PCs),
    // dwelt in for geometric runs: enough structure that trackers do
    // real classification work instead of degenerate same-signature
    // matches.
    constexpr unsigned kShapes = 6;
    constexpr std::size_t kBranchesPerInterval = 256;
    Rng rng(std::uint64_t{0x5EEDF00D} ^ stream_seed);
    std::vector<std::vector<Addr>> shapePcs(kShapes);
    for (unsigned s = 0; s < kShapes; ++s) {
        shapePcs[s].resize(64);
        for (auto &pc : shapePcs[s])
            pc = 0x400000 + ((std::uint64_t{s} << 20) |
                             (rng.nextBounded(4096) * 4));
    }

    phase::AccumulatorTable acc(num_counters);
    EncodedStream stream(packets);
    unsigned shape = 0;
    for (std::size_t i = 0; i < packets; ++i) {
        if (rng.nextBool(0.08))
            shape = rng.nextBounded(kShapes);
        const auto &pcs = shapePcs[shape];
        acc.reset();
        for (std::size_t b = 0; b < kBranchesPerInterval; ++b)
            acc.recordBranch(pcs[rng.nextBounded(
                                 static_cast<std::uint32_t>(
                                     pcs.size()))],
                             12);
        const double cpi =
            0.6 + 0.15 * shape + 0.02 * rng.nextDouble();
        encodePacket(stream[i], 0, i, acc.counters().data(),
                     num_counters, acc.totalIncrement(), cpi);
    }
    return stream;
}

namespace
{

/**
 * Parks until the ring accepts the frame or the retry budget runs
 * out. Returns true on push. Retries start as plain yields (the
 * cheap case: the consumer just needs the core) and escalate to
 * exponentially growing sleeps, bounding the CPU a blocked producer
 * burns against a slow or wedged consumer.
 */
bool
parkPush(const ProducerTask &task, const std::uint8_t *data,
         std::uint32_t len, std::uint64_t &parks)
{
    std::uint64_t retries = 0;
    std::uint64_t sleep_us = task.parkSleepUs;
    while (!task.ring->tryPush(data, len)) {
        ++parks;
        ++retries;
        if (task.parkRetryLimit != 0 &&
            retries >= task.parkRetryLimit)
            return false;
        if (retries <= task.parkYields) {
            // Yield rather than spin: on a saturated (or
            // single-core) host the consumer needs this CPU to make
            // the space we are waiting for.
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(
                std::chrono::microseconds(sleep_us));
            sleep_us = std::min(task.parkMaxSleepUs, sleep_us * 2);
        }
    }
    return true;
}

} // namespace

ProducerCounters
runProducer(const ProducerTask &task)
{
    tpcp_assert(task.ring != nullptr, "producer needs a ring");
    tpcp_assert(task.tenants.size() == task.streams.size(),
                "producer tenant/stream lists must be parallel");
    ProducerCounters c;
    c.tenantPushed.assign(task.tenants.size(), 0);
    c.tenantDropped.assign(task.tenants.size(), 0);
    c.tenantParks.assign(task.tenants.size(), 0);
    std::size_t longest = 0;
    for (const EncodedStream *s : task.streams)
        longest = std::max(longest, s->size());

    std::vector<std::uint8_t> frame;
    // Round-robin: one packet per tenant per pass, so thousands of
    // tenants interleave at packet granularity the way concurrent
    // instruction streams would.
    for (std::size_t step = task.startStep; step < longest; ++step) {
        for (std::size_t i = 0; i < task.tenants.size(); ++i) {
            const EncodedStream &s = *task.streams[i];
            if (step >= s.size())
                continue;
            frame = s[step];
            restampPacket(frame.data(), task.tenants[i], step);
            const auto len =
                static_cast<std::uint32_t>(frame.size());
            bool pushed;
            std::uint64_t parks = 0;
            if (task.policy == BackpressurePolicy::Park)
                pushed = parkPush(task, frame.data(), len, parks);
            else
                pushed = task.ring->tryPush(frame.data(), len);
            c.parkEvents += parks;
            c.tenantParks[i] += parks;
            if (!pushed) {
                // The sequence number still advances (seq == step),
                // so the consumer sees the gap and mirrors this
                // count as lostUpstream.
                ++c.dropped;
                ++c.tenantDropped[i];
                continue;
            }
            ++c.pushed;
            ++c.tenantPushed[i];
            c.bytes += len;
        }
    }
    return c;
}

} // namespace tpcp::serve
