/**
 * @file
 * End-to-end tests for the streaming service: per-tenant phase-ID
 * streams must be byte-identical to the batch PhaseTracker path —
 * at one producer, at several, and across checkpointed eviction and
 * transparent resume — and every packet must be visibly accounted
 * for (delivered, malformed, or rejected; never silently lost).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "serve/service.hh"

using namespace tpcp;
using namespace tpcp::serve;

namespace
{

constexpr unsigned kTenants = 6;
constexpr std::size_t kPackets = 120;

std::vector<EncodedStream>
testStreams(const pred::PhaseTrackerConfig &tcfg)
{
    std::vector<EncodedStream> streams;
    for (unsigned k = 0; k < 3; ++k)
        streams.push_back(encodeSyntheticStream(
            k, kPackets, tcfg.classifier.numCounters));
    return streams;
}

const EncodedStream &
streamOf(const std::vector<EncodedStream> &streams, std::uint64_t t)
{
    return streams[t % streams.size()];
}

/** Runs the full service over the test tenants and returns it. */
std::unique_ptr<ServiceLoop>
runService(const std::vector<EncodedStream> &streams,
           const ServeOptions &opts)
{
    auto loop = std::make_unique<ServiceLoop>(opts);
    std::vector<ProducerTask> tasks(opts.producers);
    for (unsigned p = 0; p < opts.producers; ++p) {
        tasks[p].ring = &loop->ring(p);
        tasks[p].policy = BackpressurePolicy::Park;
    }
    for (std::uint64_t t = 0; t < kTenants; ++t) {
        ProducerTask &task = tasks[t % opts.producers];
        task.tenants.push_back(t);
        task.streams.push_back(&streamOf(streams, t));
    }
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < opts.producers; ++p)
        threads.emplace_back([&, p] {
            runProducer(tasks[p]);
            loop->producerDone(p);
        });
    loop->run();
    for (std::thread &th : threads)
        th.join();
    return loop;
}

ServeOptions
baseOptions()
{
    ServeOptions opts;
    opts.registry.maxResident = kTenants;
    opts.registry.recordPhases = true;
    return opts;
}

void
expectBatchIdentity(const ServiceLoop &loop,
                    const std::vector<EncodedStream> &streams,
                    const pred::PhaseTrackerConfig &tcfg)
{
    for (std::uint64_t t = 0; t < kTenants; ++t) {
        const std::vector<PhaseId> expect =
            batchPhaseStream(streamOf(streams, t), tcfg);
        EXPECT_EQ(loop.phaseStream(t), expect)
            << "tenant " << t
            << " diverged from the batch path";
    }
}

} // namespace

TEST(ServiceLoop, MatchesBatchPathSingleProducer)
{
    ServeOptions opts = baseOptions();
    auto streams = testStreams(opts.registry.tracker);
    auto loop = runService(streams, opts);

    const ServeCounters c = loop->counters();
    EXPECT_EQ(c.packets, std::uint64_t{kTenants} * kPackets);
    EXPECT_EQ(c.malformedPackets, 0u);
    EXPECT_EQ(c.rejectedPackets, 0u);
    EXPECT_EQ(c.lostUpstream, 0u);
    EXPECT_EQ(c.tenants, kTenants);
    expectBatchIdentity(*loop, streams, opts.registry.tracker);
}

TEST(ServiceLoop, MatchesBatchPathAtAnyProducerCount)
{
    for (unsigned producers : {2u, 3u}) {
        ServeOptions opts = baseOptions();
        opts.producers = producers;
        auto streams = testStreams(opts.registry.tracker);
        auto loop = runService(streams, opts);
        EXPECT_EQ(loop->counters().packets,
                  std::uint64_t{kTenants} * kPackets);
        expectBatchIdentity(*loop, streams, opts.registry.tracker);
    }
}

TEST(ServiceLoop, EvictResumePreservesIdentity)
{
    ServeOptions opts = baseOptions();
    opts.producers = 2;
    // Only 2 resident trackers per partition for 3 tenants each: every
    // drain cycle forces checkpointed evictions and transparent
    // resumes mid-stream.
    opts.registry.maxResident = 2;
    opts.registry.evictAfter = 16;
    auto streams = testStreams(opts.registry.tracker);
    auto loop = runService(streams, opts);

    const ServeCounters c = loop->counters();
    EXPECT_GT(c.evictions, 0u) << "test exercised no eviction";
    EXPECT_GT(c.resumes, 0u) << "test exercised no resume";
    EXPECT_EQ(c.packets, std::uint64_t{kTenants} * kPackets);
    EXPECT_EQ(c.rejectedPackets, 0u);
    expectBatchIdentity(*loop, streams, opts.registry.tracker);
}

TEST(ServiceLoop, MalformedFramesCountedNotFatal)
{
    ServeOptions opts = baseOptions();
    ServiceLoop loop(opts);
    auto streams = testStreams(opts.registry.tracker);

    // Interleave garbage frames with a valid stream by hand.
    SpscRing &ring = loop.ring(0);
    const EncodedStream &stream = streamOf(streams, 0);
    const std::uint8_t garbage[32] = {0xBA, 0xD0};
    ASSERT_TRUE(ring.tryPush(garbage, sizeof(garbage)));
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        frame = stream[i];
        restampPacket(frame.data(), 0, i);
        ASSERT_TRUE(ring.tryPush(
            frame.data(), static_cast<std::uint32_t>(frame.size())));
    }
    ASSERT_TRUE(ring.tryPush(garbage, sizeof(garbage)));
    loop.producerDone(0);
    loop.run();

    const ServeCounters c = loop.counters();
    EXPECT_EQ(c.malformedPackets, 2u);
    EXPECT_EQ(c.packets, stream.size());
    // The tenant's stream is untouched by the surrounding garbage.
    EXPECT_EQ(loop.phaseStream(0),
              batchPhaseStream(stream, opts.registry.tracker));
}

TEST(TenantRegistry, DuplicateSequenceRejectedWithoutStateChange)
{
    RegistryConfig rc;
    rc.maxResident = 2;
    rc.recordPhases = true;
    TenantRegistry registry(rc);

    IntervalPacket pkt;
    pkt.tenant = 9;
    pkt.counters.assign(rc.tracker.classifier.numCounters, 50);
    pkt.total = 5000;
    pkt.cpi = 1.0;

    pkt.seq = 0;
    registry.deliverPacket(pkt);
    pkt.seq = 1;
    registry.deliverPacket(pkt);
    // Replay of seq 1: rejected, and the phase stream must not grow.
    EXPECT_THROW(registry.deliverPacket(pkt), Error);
    EXPECT_EQ(registry.phaseStream(9).size(), 2u);
    EXPECT_EQ(registry.counters().duplicateSeq, 1u);
    EXPECT_EQ(registry.tenantCounters(9).duplicateSeq, 1u);
    // The stream continues normally after the rejected replay.
    pkt.seq = 2;
    registry.deliverPacket(pkt);
    EXPECT_EQ(registry.phaseStream(9).size(), 3u);
}

TEST(TenantRegistry, ForwardGapCountedAsUpstreamLoss)
{
    RegistryConfig rc;
    rc.maxResident = 2;
    TenantRegistry registry(rc);

    IntervalPacket pkt;
    pkt.tenant = 4;
    pkt.counters.assign(rc.tracker.classifier.numCounters, 50);
    pkt.total = 5000;
    pkt.cpi = 1.0;

    pkt.seq = 0;
    registry.deliverPacket(pkt);
    // Seqs 1..4 were dropped by a backpressured producer: the
    // consumer mirrors the loss so both sides agree on the count.
    pkt.seq = 5;
    registry.deliverPacket(pkt);
    EXPECT_EQ(registry.counters().lostUpstream, 4u);
    EXPECT_EQ(registry.counters().seqGaps, 1u);
    EXPECT_EQ(registry.tenantCounters(4).lostUpstream, 4u);
    EXPECT_EQ(registry.counters().packets, 2u);
}

TEST(TenantRegistry, FullRegistryParksOldestTenantInMemory)
{
    RegistryConfig rc;
    rc.maxResident = 1;
    TenantRegistry registry(rc);

    IntervalPacket pkt;
    pkt.counters.assign(rc.tracker.classifier.numCounters, 50);
    pkt.total = 5000;
    pkt.cpi = 1.0;

    pkt.tenant = 1;
    pkt.seq = 0;
    registry.deliverPacket(pkt);
    // The second tenant needs the only resident tracker: the first
    // is parked as an in-memory checkpoint image, with nothing to
    // configure.
    pkt.tenant = 2;
    registry.deliverPacket(pkt);
    EXPECT_EQ(registry.numResident(), 1u);
    EXPECT_EQ(registry.tenantCounters(1).evictions, 1u);
    EXPECT_FALSE(registry.checkpointImage(1).empty());
    // The first tenant resumes from its image and keeps working.
    pkt.tenant = 1;
    pkt.seq = 1;
    registry.deliverPacket(pkt);
    EXPECT_EQ(registry.tenantCounters(1).resumes, 1u);
    EXPECT_TRUE(registry.checkpointImage(1).empty());
    EXPECT_EQ(registry.counters().packets, 3u);
}

TEST(ServeReport, JsonIsPinnedByteForByte)
{
    // Every counter distinct, so a field written under the wrong key
    // or in the wrong order shows. The two wall-clock values are
    // chosen to print the same at any %g precision.
    ServeReport rep;
    rep.tenants = 2;
    rep.producers = 3;
    rep.jobs = 4;
    rep.packetsProduced = 5;
    rep.packetsDropped = 6;
    rep.parkEvents = 7;
    ServeCounters &s = rep.service;
    s.packets = 101;
    s.malformedPackets = 102;
    s.rejectedPackets = 103;
    s.shedPackets = 104;
    s.tenants = 105;
    s.evictions = 106;
    s.resumes = 107;
    s.phaseSwitches = 108;
    s.duplicateSeq = 109;
    s.seqGaps = 110;
    s.lostUpstream = 111;
    s.quarantines = 112;
    s.quarantineDrops = 113;
    s.readmissions = 114;
    s.resumeFailures = 115;
    s.drainCycles = 116;
    rep.elapsedSec = 2.5;
    rep.packetsPerSec = 1600.0;
    ServeTenantReport t;
    t.tenant = 7;
    t.c.packets = 11;
    t.c.phaseSwitches = 12;
    t.c.evictions = 13;
    t.c.resumes = 14;
    t.c.duplicateSeq = 15;
    t.c.lostUpstream = 16;
    t.c.malformedPackets = 17;
    t.c.shedPackets = 18;
    t.c.parkEvents = 19;
    t.c.packetsDropped = 20;
    t.c.quarantines = 21;
    t.c.quarantineDrops = 22;
    t.c.readmissions = 23;
    t.c.resumeFailures = 24;
    rep.perTenant.push_back(t);
    rep.perTenant.push_back({9, {}});

    const std::string head =
        "{\n  \"tenants\": 2, \"producers\": 3, \"jobs\": 4, "
        "\"packets_produced\": 5, \"packets_dropped\": 6, "
        "\"park_events\": 7, \n"
        "  \"packets_delivered\": 101, \"malformed_packets\": 102, "
        "\"rejected_packets\": 103, \"shed_packets\": 104, "
        "\"service_tenants\": 105, \"evictions\": 106, "
        "\"resumes\": 107, \"phase_switches\": 108, "
        "\"duplicate_seq\": 109, \"seq_gaps\": 110, "
        "\"lost_upstream\": 111, \n"
        "  \"quarantines\": 112, \"quarantine_drops\": 113, "
        "\"readmissions\": 114, \"resume_failures\": 115, "
        "\"drain_cycles\": 116, \n"
        "  \"elapsed_sec\": 2.5, \"packets_per_sec\": 1600, "
        "\"per_tenant\": [";
    EXPECT_EQ(toJson(rep),
              head +
                  "\n    {\"tenant\": 7, \"packets\": 11, "
                  "\"phase_switches\": 12, \"evictions\": 13, "
                  "\"resumes\": 14, \"duplicate_seq\": 15, "
                  "\"lost_upstream\": 16, \"malformed_packets\": 17, "
                  "\"shed_packets\": 18, \"park_events\": 19, "
                  "\"packets_dropped\": 20, \"quarantines\": 21, "
                  "\"quarantine_drops\": 22, \"readmissions\": 23, "
                  "\"resume_failures\": 24},"
                  "\n    {\"tenant\": 9, \"packets\": 0, "
                  "\"phase_switches\": 0, \"evictions\": 0, "
                  "\"resumes\": 0, \"duplicate_seq\": 0, "
                  "\"lost_upstream\": 0, \"malformed_packets\": 0, "
                  "\"shed_packets\": 0, \"park_events\": 0, "
                  "\"packets_dropped\": 0, \"quarantines\": 0, "
                  "\"quarantine_drops\": 0, \"readmissions\": 0, "
                  "\"resume_failures\": 0}\n  ]\n}\n");
    rep.perTenant.clear();
    EXPECT_EQ(toJson(rep), head + "]\n}\n");
}

TEST(ServeReport, JsonContainsCountersAndTenants)
{
    ServeReport rep;
    rep.tenants = 2;
    rep.producers = 1;
    rep.packetsProduced = 100;
    rep.service.packets = 100;
    rep.perTenant.push_back({0, {}});
    rep.perTenant.push_back({1, {}});
    const std::string json = toJson(rep);
    EXPECT_NE(json.find("\"packets_produced\": 100"),
              std::string::npos);
    EXPECT_NE(json.find("\"packets_delivered\": 100"),
              std::string::npos);
    EXPECT_NE(json.find("\"per_tenant\": ["), std::string::npos);
    EXPECT_NE(json.find("\"tenant\": 1"), std::string::npos);
}
