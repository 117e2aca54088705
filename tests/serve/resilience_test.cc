/**
 * @file
 * Overload-resilience tests for the streaming service: DRR drain
 * fairness and token-bucket rate limiting in the FlowScheduler,
 * bounded-backlog shedding with exact conservation, the registry's
 * quarantine-and-readmit state machine (including phase-stream
 * identity across a quarantine's checkpoint/resume), the producer's
 * park-retry budget escalating to counted drops, and the serve-layer
 * fault-injection hooks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "fault/injector.hh"
#include "serve/flow_sched.hh"
#include "serve/service.hh"

using namespace tpcp;
using namespace tpcp::serve;

namespace
{

/** A tiny distinguishable frame for scheduler-only tests. */
std::vector<std::uint8_t>
markerFrame(std::uint8_t tag)
{
    return {tag, 0x5A, tag};
}

IntervalPacket
packetFor(const RegistryConfig &rc, std::uint64_t tenant,
          std::uint64_t seq, std::uint32_t fill = 50)
{
    IntervalPacket pkt;
    pkt.tenant = tenant;
    pkt.seq = seq;
    pkt.counters.assign(rc.tracker.classifier.numCounters, fill);
    pkt.total = 5000;
    pkt.cpi = 1.0;
    return pkt;
}

} // namespace

TEST(FlowScheduler, DrrSharesBudgetAcrossBackloggedFlows)
{
    FairnessConfig fc;
    fc.maxBacklog = 1024;
    fc.drrQuantum = 1; // packet-granular round robin
    FlowScheduler sched(fc);

    const auto frame = markerFrame(1);
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(sched.stage(1, frame.data(), frame.size()));
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(sched.stage(2, frame.data(), frame.size()));

    // A budget of 20 must split evenly: the deep backlog cannot buy
    // tenant 1 more than its round-robin share.
    std::map<std::uint64_t, int> drained;
    std::size_t served = sched.drain(
        20, [&](std::uint64_t tenant, const std::vector<std::uint8_t> &) {
            ++drained[tenant];
        });
    EXPECT_EQ(served, 20u);
    EXPECT_EQ(drained[1], 10);
    EXPECT_EQ(drained[2], 10);
}

TEST(FlowScheduler, TokenBucketBoundsPerCycleService)
{
    FairnessConfig fc;
    fc.ratePerCycle = 2;
    FlowScheduler sched(fc);

    const auto frame = markerFrame(2);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(sched.stage(7, frame.data(), frame.size()));

    // Each cycle refills 2 tokens, so a huge budget still serves
    // exactly 2 frames per cycle: 5 cycles to empty.
    int drained = 0;
    for (int cycle = 0; cycle < 5; ++cycle) {
        sched.beginCycle();
        EXPECT_EQ(sched.drain(1000,
                              [&](std::uint64_t tenant,
                                  const std::vector<std::uint8_t> &) {
                                  EXPECT_EQ(tenant, 7u);
                                  ++drained;
                              }),
                  2u)
            << "cycle " << cycle;
    }
    EXPECT_TRUE(sched.idle());
    EXPECT_EQ(drained, 10);
}

TEST(FlowScheduler, NewFlowStartsWithFullBucket)
{
    FairnessConfig fc;
    fc.ratePerCycle = 1;
    fc.burst = 3;
    FlowScheduler sched(fc);

    const auto frame = markerFrame(4);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(sched.stage(5, frame.data(), frame.size()));
    auto none = [](std::uint64_t, const std::vector<std::uint8_t> &) {};
    // A tenant never seen before may use its whole burst at once;
    // after that the refill rate bounds it.
    sched.beginCycle();
    EXPECT_EQ(sched.drain(1000, none), 3u);
    sched.beginCycle();
    EXPECT_EQ(sched.drain(1000, none), 1u);
    sched.beginCycle();
    EXPECT_EQ(sched.drain(1000, none), 1u);
    EXPECT_TRUE(sched.idle());
}

TEST(FlowScheduler, FullBacklogShedsCounted)
{
    FairnessConfig fc;
    fc.maxBacklog = 4;
    FlowScheduler sched(fc);

    const auto frame = markerFrame(3);
    std::uint64_t queued = 0, shed = 0;
    for (int i = 0; i < 7; ++i) {
        if (sched.stage(9, frame.data(), frame.size()))
            ++queued;
        else
            ++shed;
    }
    EXPECT_EQ(queued, 4u);
    EXPECT_EQ(shed, 3u);
    EXPECT_EQ(sched.backlog(), 4u);
    // Every arrival is drained or shed, never both.
    std::uint64_t drained = 0;
    sched.drain(1000, [&](std::uint64_t,
                          const std::vector<std::uint8_t> &) {
        ++drained;
    });
    EXPECT_EQ(drained + shed, 7u);
    EXPECT_TRUE(sched.idle());
}

TEST(FlowScheduler, DrainedFlowsLeaveNoRecord)
{
    // Header ids are untrusted: staging 1000 distinct ids and
    // draining them must not leave 1000 records behind.
    const auto frame = markerFrame(6);
    auto none = [](std::uint64_t, const std::vector<std::uint8_t> &) {};
    {
        FlowScheduler sched(FairnessConfig{});
        for (std::uint64_t id = 0; id < 1000; ++id)
            ASSERT_TRUE(sched.stage(id, frame.data(), frame.size()));
        EXPECT_EQ(sched.trackedFlows(), 1000u);
        sched.beginCycle();
        EXPECT_EQ(sched.drain(1000, none), 1000u);
        EXPECT_TRUE(sched.idle());
        EXPECT_EQ(sched.trackedFlows(), 0u);
    }
    {
        // With rate limiting a drained flow is remembered until its
        // bucket has refilled, then dropped.
        FairnessConfig fc;
        fc.ratePerCycle = 1;
        fc.burst = 2;
        FlowScheduler sched(fc);
        for (std::uint64_t id = 0; id < 1000; ++id)
            ASSERT_TRUE(sched.stage(id, frame.data(), frame.size()));
        sched.beginCycle();
        EXPECT_EQ(sched.drain(1000, none), 1000u);
        EXPECT_EQ(sched.trackedFlows(), 1000u);
        sched.beginCycle();
        EXPECT_EQ(sched.trackedFlows(), 0u);
    }
}

TEST(FlowScheduler, PerTenantOrderIsFifo)
{
    FairnessConfig fc;
    fc.maxBacklog = 64;
    fc.drrQuantum = 2;
    FlowScheduler sched(fc);

    for (std::uint8_t i = 0; i < 6; ++i) {
        const auto f = markerFrame(i);
        ASSERT_TRUE(sched.stage(i % 2, f.data(), f.size()));
    }
    std::vector<std::uint8_t> even, odd;
    sched.drain(100, [&](std::uint64_t tenant,
                         const std::vector<std::uint8_t> &f) {
        (tenant == 0 ? even : odd).push_back(f[0]);
    });
    EXPECT_EQ(even, (std::vector<std::uint8_t>{0, 2, 4}));
    EXPECT_EQ(odd, (std::vector<std::uint8_t>{1, 3, 5}));
}

TEST(Packet, PeekTenantValidatesHeader)
{
    std::vector<std::uint8_t> frame;
    std::uint32_t counters[4] = {1, 2, 3, 4};
    encodePacket(frame, 42, 7, counters, 4, 100, 1.5);

    std::uint64_t tenant = 0;
    EXPECT_TRUE(
        peekPacketTenant(frame.data(), frame.size(), tenant));
    EXPECT_EQ(tenant, 42u);

    // Truncated below the header: unattributable.
    EXPECT_FALSE(peekPacketTenant(frame.data(), 16, tenant));
    // Bad magic: unattributable.
    std::vector<std::uint8_t> garbage(frame);
    garbage[0] ^= 0xFF;
    EXPECT_FALSE(
        peekPacketTenant(garbage.data(), garbage.size(), tenant));
}

TEST(TenantRegistry, QuarantineReadmitPreservesIdentity)
{
    RegistryConfig rc;
    rc.maxResident = 4;
    rc.recordPhases = true;
    rc.quarantine.offenseThreshold = 3;
    rc.quarantine.offenseWindow = 1024;
    rc.quarantine.backoffBase = 8;
    rc.quarantine.backoffCap = 64;
    TenantRegistry registry(rc);

    const unsigned dims = rc.tracker.classifier.numCounters;
    const EncodedStream stream = encodeSyntheticStream(1, 40, dims);
    const std::vector<PhaseId> expect =
        batchPhaseStream(stream, rc.tracker);

    IntervalPacket pkt;
    auto deliverFromStream = [&](std::uint64_t tenant,
                                 std::size_t i) {
        decodePacket(stream[i].data(), stream[i].size(), pkt);
        pkt.tenant = tenant;
        pkt.seq = i;
        return registry.deliverPacket(pkt);
    };

    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(deliverFromStream(7, i).status,
                  DeliverStatus::Delivered);

    // Three offenses inside the window: quarantined, state parked
    // through the normal eviction/checkpoint path.
    registry.noteMalformed(7);
    registry.noteMalformed(7);
    registry.noteMalformed(7);
    EXPECT_TRUE(registry.isQuarantined(7));
    EXPECT_EQ(registry.counters().quarantines, 1u);
    EXPECT_EQ(registry.tenantCounters(7).evictions, 1u);

    // Packets during the backoff are dropped and counted, never
    // delivered.
    EXPECT_EQ(deliverFromStream(7, 10).status,
              DeliverStatus::QuarantineDropped);
    EXPECT_EQ(registry.tenantCounters(7).quarantineDrops, 1u);

    // A clean co-tenant advances the clock past the backoff.
    for (std::size_t i = 0; i < 16; ++i)
        deliverFromStream(8, i);
    EXPECT_FALSE(registry.isQuarantined(7));

    // The first packet after expiry readmits and transparently
    // resumes from the quarantine checkpoint.
    for (std::size_t i = 10; i < stream.size(); ++i)
        EXPECT_EQ(deliverFromStream(7, i).status,
                  DeliverStatus::Delivered);
    EXPECT_EQ(registry.counters().readmissions, 1u);
    EXPECT_EQ(registry.tenantCounters(7).resumes, 1u);
    EXPECT_EQ(registry.phaseStream(7), expect)
        << "quarantine checkpoint/resume changed the phase stream";
}

TEST(TenantRegistry, RepeatQuarantineBackoffDoubles)
{
    RegistryConfig rc;
    rc.maxResident = 4;
    rc.quarantine.offenseThreshold = 2;
    rc.quarantine.offenseWindow = 1024;
    rc.quarantine.backoffBase = 4;
    rc.quarantine.backoffCap = 1024;
    TenantRegistry registry(rc);

    auto tick = [&](std::size_t n) {
        // Clean co-tenant packets advance the registry clock.
        static std::uint64_t seq = 0;
        IntervalPacket pkt = packetFor(rc, 99, 0);
        for (std::size_t i = 0; i < n; ++i) {
            pkt.seq = seq++;
            registry.deliverPacket(pkt);
        }
    };

    // Offenses count only against a tenant the registry knows.
    IntervalPacket first = packetFor(rc, 5, 0);
    registry.deliverPacket(first);
    registry.noteMalformed(5);
    registry.noteMalformed(5);
    EXPECT_TRUE(registry.isQuarantined(5));
    tick(5); // past the first 4-tick backoff
    EXPECT_FALSE(registry.isQuarantined(5));

    // Re-offend after expiry: second quarantine, doubled backoff.
    registry.noteMalformed(5);
    registry.noteMalformed(5);
    EXPECT_EQ(registry.counters().quarantines, 2u);
    tick(5);
    EXPECT_TRUE(registry.isQuarantined(5))
        << "second backoff should outlast the first";
    tick(4);
    EXPECT_FALSE(registry.isQuarantined(5));
}

TEST(Producer, ParkRetryBudgetEscalatesToCountedDrop)
{
    // A ring nobody drains: with a finite park budget the producer
    // must terminate, counting every undeliverable packet.
    SpscRing ring(1u << 12);
    const unsigned dims = 16;
    const EncodedStream stream = encodeSyntheticStream(0, 64, dims);

    ProducerTask task;
    task.ring = &ring;
    task.tenants = {0, 1};
    task.streams = {&stream, &stream};
    task.policy = BackpressurePolicy::Park;
    task.parkRetryLimit = 8;
    task.parkYields = 2;
    task.parkSleepUs = 1;
    task.parkMaxSleepUs = 4;

    const ProducerCounters c = runProducer(task);
    EXPECT_GT(c.pushed, 0u);
    EXPECT_GT(c.dropped, 0u) << "budget never escalated";
    EXPECT_GT(c.parkEvents, 0u);
    EXPECT_EQ(c.pushed + c.dropped, 2 * stream.size());
    EXPECT_EQ(c.tenantPushed[0] + c.tenantPushed[1], c.pushed);
    EXPECT_EQ(c.tenantDropped[0] + c.tenantDropped[1], c.dropped);
    EXPECT_EQ(c.tenantParks[0] + c.tenantParks[1], c.parkEvents);
}

TEST(ServiceLoop, OverloadConservationExact)
{
    // Tight per-tenant backlog + rate limit with lossless producers:
    // every pushed packet must end up delivered or shed — bit-exact
    // conservation, no silent loss.
    ServeOptions opts;
    opts.registry.maxResident = 8;
    opts.fairness.ratePerCycle = 2;
    opts.fairness.maxBacklog = 8;
    opts.fairness.drrQuantum = 1;
    opts.drainBatch = 64;
    ServiceLoop loop(opts);

    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream = encodeSyntheticStream(2, 200, dims);
    ProducerTask task;
    task.ring = &loop.ring(0);
    task.tenants = {0, 1, 2, 3};
    task.streams = {&stream, &stream, &stream, &stream};
    task.policy = BackpressurePolicy::Park;

    ProducerCounters pc;
    std::thread producer([&] {
        pc = runProducer(task);
        loop.producerDone(0);
    });
    loop.run();
    producer.join();

    const ServeCounters c = loop.counters();
    EXPECT_EQ(pc.pushed, 4 * stream.size());
    EXPECT_EQ(c.packets + c.shedPackets + c.malformedPackets +
                  c.rejectedPackets + c.quarantineDrops,
              pc.pushed)
        << "conservation identity violated";
    // Per-tenant sheds are attributed.
    std::uint64_t shed = 0;
    for (std::uint64_t t = 0; t < 4; ++t)
        shed += loop.tenantCounters(t).shedPackets;
    EXPECT_EQ(shed, c.shedPackets);
}

TEST(ServiceLoop, FairnessPathKeepsBatchIdentityWhenUnderLimit)
{
    // Fairness machinery on but never binding: the reordering is
    // between tenants only, so per-tenant phase streams must still
    // be byte-identical to the batch path.
    ServeOptions opts;
    opts.registry.maxResident = 4;
    opts.registry.recordPhases = true;
    opts.fairness.ratePerCycle = 100000;
    opts.fairness.drrQuantum = 3;
    ServiceLoop loop(opts);

    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    std::vector<EncodedStream> streams;
    for (unsigned k = 0; k < 2; ++k)
        streams.push_back(encodeSyntheticStream(k, 150, dims));

    ProducerTask task;
    task.ring = &loop.ring(0);
    task.tenants = {0, 1, 2};
    task.streams = {&streams[0], &streams[1], &streams[0]};
    task.policy = BackpressurePolicy::Park;
    std::thread producer([&] {
        runProducer(task);
        loop.producerDone(0);
    });
    loop.run();
    producer.join();

    const ServeCounters c = loop.counters();
    EXPECT_EQ(c.packets, 3 * 150u);
    EXPECT_EQ(c.shedPackets, 0u);
    for (std::uint64_t t = 0; t < 3; ++t)
        EXPECT_EQ(loop.phaseStream(t),
                  batchPhaseStream(streams[t == 1 ? 1 : 0],
                                   opts.registry.tracker))
            << "tenant " << t;
}

TEST(ServiceLoop, LockstepRunCycleIsDeterministic)
{
    // The chaos harness's lockstep mode: inline pushes + runCycle()
    // on one thread must yield identical counters run to run.
    auto runOnce = [] {
        ServeOptions opts;
        opts.registry.maxResident = 4;
        opts.registry.quarantine.offenseThreshold = 4;
        opts.registry.quarantine.backoffBase = 16;
        opts.fairness.ratePerCycle = 3;
        opts.fairness.maxBacklog = 6;
        opts.fairness.drrQuantum = 1;
        opts.drainBatch = 32;
        ServiceLoop loop(opts);

        const unsigned dims =
            opts.registry.tracker.classifier.numCounters;
        const EncodedStream stream =
            encodeSyntheticStream(5, 120, dims);
        std::vector<std::uint8_t> frame;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            for (std::uint64_t t = 0; t < 3; ++t) {
                frame = stream[i];
                restampPacket(frame.data(), t, i);
                loop.ring(0).tryPush(
                    frame.data(),
                    static_cast<std::uint32_t>(frame.size()));
            }
            if (i % 8 == 7)
                loop.runCycle();
        }
        loop.producerDone(0);
        while (loop.runCycle() != 0) {
        }
        return loop.counters();
    };

    const ServeCounters a = runOnce();
    const ServeCounters b = runOnce();
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.shedPackets, b.shedPackets);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.quarantineDrops, b.quarantineDrops);
    EXPECT_EQ(a.readmissions, b.readmissions);
    EXPECT_EQ(a.phaseSwitches, b.phaseSwitches);
    EXPECT_EQ(a.lostUpstream, b.lostUpstream);
}

TEST(Injector, ServeCheckpointTargetDamagesImages)
{
    fault::InjectorConfig fcfg;
    fcfg.target = fault::Target::ServeCheckpoint;
    fcfg.ratePerInterval = 1.0; // every eviction takes the fault
    fault::Injector injector(fcfg, "serve-ckpt-test");

    // Across repeated evictions the injector must hit every damage
    // mode; each hit leaves the image either empty or different.
    unsigned damaged = 0;
    for (int i = 0; i < 16; ++i) {
        std::vector<std::uint8_t> image(256);
        for (int b = 0; b < 256; ++b)
            image[b] = static_cast<std::uint8_t>(b);
        if (injector.corruptCheckpoint(image)) {
            ++damaged;
            bool differs = image.size() != 256;
            for (std::size_t b = 0; !differs && b < image.size(); ++b)
                differs = image[b] != static_cast<std::uint8_t>(b);
            EXPECT_TRUE(differs)
                << "reported damage but image unchanged";
        }
    }
    EXPECT_EQ(damaged, 16u);
    EXPECT_EQ(injector.counts().serveCheckpointFaults, 16u);
    EXPECT_EQ(fault::targetByName("serve-checkpoint"),
              fault::Target::ServeCheckpoint);
    EXPECT_EQ(fault::targetByName("serve-frame"),
              fault::Target::ServeFrame);
}

TEST(Injector, ServeFrameTargetFlipsOneBit)
{
    fault::InjectorConfig fcfg;
    fcfg.target = fault::Target::ServeFrame;
    fcfg.ratePerInterval = 1.0;
    fault::Injector injector(fcfg, "serve-frame-test");

    std::vector<std::uint8_t> frame(64, 0xAB);
    ASSERT_TRUE(injector.maybeCorruptFrame(frame.data(),
                                           frame.size()));
    unsigned diff_bits = 0;
    for (std::uint8_t byte : frame)
        diff_bits += __builtin_popcount(byte ^ 0xABu);
    EXPECT_EQ(diff_bits, 1u);
    EXPECT_EQ(injector.counts().serveFrameFlips, 1u);
}

namespace
{

/** Pushes ten good frames of tenant 3, a bad-payload frame with a
 * readable header, one more good frame after a gap and a header-less
 * garbage frame, drains them, and checks where each is counted. */
void
expectMalformedCountedOnce(const ServeOptions &opts)
{
    ServiceLoop loop(opts);
    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream = encodeSyntheticStream(5, 10, dims);
    SpscRing &ring = loop.ring(0);
    std::vector<std::uint8_t> frame;
    // Sequence 10 is the bad frame and 11 is never sent.
    for (std::uint64_t seq : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}) {
        frame = stream[seq % stream.size()];
        restampPacket(frame.data(), 3, seq);
        if (seq == 10)
            frame[28] = 1; // reserved field; the header still reads
        ASSERT_TRUE(ring.tryPush(
            frame.data(), static_cast<std::uint32_t>(frame.size())));
    }
    const std::uint8_t garbage[32] = {0xBA, 0xD0};
    ASSERT_TRUE(ring.tryPush(garbage, sizeof(garbage)));
    loop.producerDone(0);
    loop.run();

    const ServeCounters c = loop.counters();
    EXPECT_EQ(c.packets, 11u);
    EXPECT_EQ(c.malformedPackets, 2u);
    EXPECT_EQ(loop.tenantCounters(3).malformedPackets, 1u);
    EXPECT_EQ(c.accounted(), 13u);
    EXPECT_EQ(c.seqGaps, 1u);
    EXPECT_EQ(c.lostUpstream, 2u);
}

} // namespace

TEST(ServiceLoop, MalformedFrameIsCountedOnceWhetherAttributedOrNot)
{
    // On the FIFO drain and on the fairness path alike, a frame whose
    // header names a tenant but whose payload is bad counts at the
    // partition (the service total) and against that tenant; garbage
    // that names no tenant counts at the partition only. The service
    // total holds each exactly once, and the sequence gap the bad
    // frame leaves reaches the totals too.
    for (bool fairness : {false, true}) {
        SCOPED_TRACE(fairness ? "fairness on" : "FIFO drain");
        ServeOptions opts;
        opts.fairness.maxBacklog = fairness ? 64 : 0;
        expectMalformedCountedOnce(opts);
    }
}

TEST(ServiceLoop, MalformedFramesNeverCreateTenants)
{
    // A rejected frame's header id is untrusted: 1000 bad frames
    // naming 1000 distinct unknown ids add no tenant record, while a
    // bad frame naming a known tenant is still charged to it.
    for (bool fairness : {false, true}) {
        SCOPED_TRACE(fairness ? "fairness on" : "FIFO drain");
        ServeOptions opts;
        opts.fairness.maxBacklog = fairness ? 2048 : 0;
        opts.ringBytes = 1u << 22;
        ServiceLoop loop(opts);
        const unsigned dims =
            opts.registry.tracker.classifier.numCounters;
        const EncodedStream stream = encodeSyntheticStream(5, 2, dims);
        SpscRing &ring = loop.ring(0);
        std::vector<std::uint8_t> frame = stream[0];
        restampPacket(frame.data(), 3, 0);
        ASSERT_TRUE(ring.tryPush(
            frame.data(), static_cast<std::uint32_t>(frame.size())));
        for (std::uint64_t id = 1000; id < 2000; ++id) {
            frame = stream[1];
            restampPacket(frame.data(), id, 0);
            frame[28] = 1; // reserved field; the header still reads
            ASSERT_TRUE(ring.tryPush(
                frame.data(),
                static_cast<std::uint32_t>(frame.size())));
        }
        frame = stream[1];
        restampPacket(frame.data(), 3, 1);
        frame[28] = 1;
        ASSERT_TRUE(ring.tryPush(
            frame.data(), static_cast<std::uint32_t>(frame.size())));
        loop.producerDone(0);
        loop.run();

        const ServeCounters c = loop.counters();
        EXPECT_EQ(loop.registry(0).numTenants(), 1u);
        EXPECT_FALSE(loop.registry(0).hasTenant(1000));
        EXPECT_EQ(c.packets, 1u);
        EXPECT_EQ(c.malformedPackets, 1001u);
        EXPECT_EQ(loop.tenantCounters(3).malformedPackets, 1u);
        EXPECT_EQ(c.accounted(), 1002u);
    }
}
