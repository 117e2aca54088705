#include "serve/service.hh"

#include <algorithm>
#include <thread>

#include "common/json.hh"
#include "common/status.hh"
#include "fault/injector.hh"
#include "serve/migration.hh"
#include "serve/packet.hh"

namespace tpcp::serve
{

ServiceLoop::Partition::Partition(std::size_t ring_bytes,
                                  const RegistryConfig &rc,
                                  const FairnessConfig &fc)
    : ring(ring_bytes), registry(rc)
{
    if (fc.enabled())
        sched = std::make_unique<FlowScheduler>(fc);
}

ServiceLoop::ServiceLoop(const ServeOptions &options)
    : opts(options), pool_(options.jobs)
{
    tpcp_assert(opts.producers >= 1,
                "service needs at least one producer ring");
    tpcp_assert(opts.drainBatch >= 1,
                "drain batch must be at least one frame");
    parts_.reserve(opts.producers);
    for (unsigned i = 0; i < opts.producers; ++i)
        parts_.push_back(std::make_unique<Partition>(
            opts.ringBytes, opts.registry, opts.fairness));
}

ServiceLoop::~ServiceLoop() = default;

SpscRing &
ServiceLoop::ring(unsigned i)
{
    tpcp_assert(i < parts_.size(), "producer index out of range");
    return parts_[i]->ring;
}

void
ServiceLoop::producerDone(unsigned i)
{
    tpcp_assert(i < parts_.size(), "producer index out of range");
    parts_[i]->done.store(true, std::memory_order_release);
}

unsigned
ServiceLoop::numPartitions() const
{
    return static_cast<unsigned>(parts_.size());
}

const TenantRegistry &
ServiceLoop::registry(unsigned i) const
{
    tpcp_assert(i < parts_.size(), "partition index out of range");
    return parts_[i]->registry;
}

void
ServiceLoop::setFaultInjector(unsigned i, fault::Injector *injector)
{
    tpcp_assert(i < parts_.size(), "partition index out of range");
    parts_[i]->injector = injector;
    parts_[i]->registry.setFaultInjector(injector);
}

void
ServiceLoop::noteProducerStats(unsigned partition,
                               std::uint64_t tenant,
                               std::uint64_t park_events,
                               std::uint64_t dropped)
{
    tpcp_assert(partition < parts_.size(),
                "partition index out of range");
    parts_[partition]->registry.noteProducerStats(tenant, park_events,
                                                  dropped);
}

void
ServiceLoop::deliverFrame(Partition &p, const std::uint8_t *data,
                          std::size_t size)
{
    try {
        decodePacket(data, size, p.pkt);
    } catch (const Error &) {
        // Count it at the partition (the conservation identity's
        // malformed term) and, when the header still names a known
        // tenant, attribute it there too (observability + offense).
        // Anything else stays partition-level.
        ++p.malformed;
        std::uint64_t tenant = 0;
        if (peekPacketTenant(data, size, tenant))
            p.registry.noteMalformed(tenant);
        return;
    }
    try {
        p.registry.deliverPacket(p.pkt);
    } catch (const Error &) {
        // Duplicate/reordered sequence or a damaged resume image:
        // the packet is rejected, the service keeps running.
        ++p.rejected;
    }
}

void
ServiceLoop::drainOne(Partition &p)
{
    p.drained = 0;
    for (std::size_t n = 0; n < opts.drainBatch; ++n) {
        try {
            if (!p.ring.tryPop(p.frame))
                break;
        } catch (const Error &) {
            // Corrupt framing desynchronizes the ring; count it and
            // give up on this cycle rather than spin on garbage.
            ++p.malformed;
            break;
        }
        ++p.drained;
        if (p.injector != nullptr)
            p.injector->maybeCorruptFrame(p.frame.data(),
                                          p.frame.size());
        if (p.sched == nullptr) {
            // Plain FIFO drain (resilience off): pop-decode-deliver.
            deliverFrame(p, p.frame.data(), p.frame.size());
            continue;
        }
        // Fairness path: attribute the frame to its tenant and stage
        // it; service order is the scheduler's business, not the
        // ring's.
        std::uint64_t tenant = 0;
        if (!peekPacketTenant(p.frame.data(), p.frame.size(),
                              tenant)) {
            // Unattributable garbage (bad magic/version/truncated
            // header) stays a partition-level malformed count.
            ++p.malformed;
            continue;
        }
        if (!p.sched->stage(tenant, p.frame.data(), p.frame.size()))
            p.registry.noteShed(tenant);
    }
    if (p.sched != nullptr) {
        p.sched->beginCycle();
        const std::size_t budget = opts.fairness.cycleBudget != 0
                                       ? opts.fairness.cycleBudget
                                       : opts.drainBatch;
        p.drained += p.sched->drain(
            budget,
            [this, &p](std::uint64_t,
                       const std::vector<std::uint8_t> &f) {
                deliverFrame(p, f.data(), f.size());
            });
    }
    p.registry.evictIdle();
}

void
ServiceLoop::run()
{
    while (true) {
        for (auto &part : parts_) {
            Partition *p = part.get();
            pool_.submit([this, p] { drainOne(*p); });
        }
        pool_.wait();
        ++drainCycles_;

        std::size_t drained = 0;
        bool finished = true;
        for (auto &part : parts_) {
            drained += part->drained;
            // Order matters: only if the producer was already done
            // *before* we observed its ring empty can no further
            // frame arrive (done is set after the final push). A
            // non-idle flow scheduler still owes staged frames.
            if (!part->done.load(std::memory_order_acquire) ||
                !part->ring.empty() ||
                (part->sched != nullptr && !part->sched->idle()))
                finished = false;
        }
        if (finished && drained == 0)
            break;
        if (drained == 0) {
            // Rings empty but producers still running: yield the
            // core so they can make progress (CI runs single-core).
            std::this_thread::yield();
        }
    }
}

std::size_t
ServiceLoop::runCycle()
{
    std::size_t activity = 0;
    for (auto &part : parts_) {
        drainOne(*part);
        activity += part->drained;
    }
    ++drainCycles_;
    return activity;
}

void
ServiceLoop::migrateOut(const std::string &bundle_dir)
{
    std::vector<MigratedTenant> tenants;
    for (auto &part : parts_) {
        part->registry.evictAll();
        for (std::uint64_t id : part->registry.tenantIds())
            tenants.push_back(part->registry.migratedState(id));
    }
    std::sort(tenants.begin(), tenants.end(),
              [](const MigratedTenant &a, const MigratedTenant &b) {
                  return a.id < b.id;
              });
    writeMigrationBundle(bundle_dir, tenants);
}

std::size_t
ServiceLoop::migrateIn(const std::string &bundle_dir)
{
    std::vector<MigratedTenant> tenants =
        loadMigrationBundle(bundle_dir);
    for (MigratedTenant &t : tenants)
        parts_[t.id % parts_.size()]->registry.adoptTenant(
            std::move(t));
    return tenants.size();
}

ServeCounters
ServiceLoop::counters() const
{
    ServeCounters c;
    for (const auto &part : parts_) {
        c += part->registry.counters();
        c.tenants += part->registry.numTenants();
        c.malformedPackets += part->malformed;
        c.rejectedPackets += part->rejected;
    }
    c.drainCycles = drainCycles_;
    return c;
}

std::vector<std::uint64_t>
ServiceLoop::allTenantIds() const
{
    std::vector<std::uint64_t> ids;
    for (const auto &part : parts_) {
        std::vector<std::uint64_t> pids = part->registry.tenantIds();
        ids.insert(ids.end(), pids.begin(), pids.end());
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

const TenantRegistry *
ServiceLoop::findTenant(std::uint64_t tenant) const
{
    for (const auto &part : parts_)
        if (part->registry.hasTenant(tenant))
            return &part->registry;
    return nullptr;
}

const ServeCounters &
ServiceLoop::tenantCounters(std::uint64_t tenant) const
{
    const TenantRegistry *r = findTenant(tenant);
    if (r == nullptr)
        tpcp_raise("unknown tenant ", tenant);
    return r->tenantCounters(tenant);
}

const std::vector<PhaseId> &
ServiceLoop::phaseStream(std::uint64_t tenant) const
{
    const TenantRegistry *r = findTenant(tenant);
    if (r == nullptr)
        tpcp_raise("unknown tenant ", tenant);
    return r->phaseStream(tenant);
}

std::string
toJson(const ServeReport &r)
{
    std::string out = "{\n  ";
    appendField(out, "tenants", r.tenants);
    appendField(out, "producers", r.producers);
    appendField(out, "jobs", r.jobs);
    appendField(out, "packets_produced", r.packetsProduced);
    appendField(out, "packets_dropped", r.packetsDropped);
    appendField(out, "park_events", r.parkEvents);
    out += "\n  ";
    appendField(out, "packets_delivered", r.service.packets);
    appendField(out, "malformed_packets",
                r.service.malformedPackets);
    appendField(out, "rejected_packets", r.service.rejectedPackets);
    appendField(out, "shed_packets", r.service.shedPackets);
    appendField(out, "service_tenants", r.service.tenants);
    appendField(out, "evictions", r.service.evictions);
    appendField(out, "resumes", r.service.resumes);
    appendField(out, "phase_switches", r.service.phaseSwitches);
    appendField(out, "duplicate_seq", r.service.duplicateSeq);
    appendField(out, "seq_gaps", r.service.seqGaps);
    appendField(out, "lost_upstream", r.service.lostUpstream);
    out += "\n  ";
    appendField(out, "quarantines", r.service.quarantines);
    appendField(out, "quarantine_drops", r.service.quarantineDrops);
    appendField(out, "readmissions", r.service.readmissions);
    appendField(out, "resume_failures", r.service.resumeFailures);
    appendField(out, "drain_cycles", r.service.drainCycles);
    out += "\n  ";
    appendField(out, "elapsed_sec", r.elapsedSec);
    appendField(out, "packets_per_sec", r.packetsPerSec);
    out += "\"per_tenant\": [";
    for (std::size_t i = 0; i < r.perTenant.size(); ++i) {
        const ServeTenantReport &t = r.perTenant[i];
        out += "\n    {";
        appendField(out, "tenant", t.tenant);
        for (const CounterField &f : kTenantCounterFields)
            appendField(out, f.name, t.c.*f.member,
                        &f == &kTenantCounterFields.back());
        out += '}';
        if (i + 1 < r.perTenant.size())
            out += ',';
    }
    if (!r.perTenant.empty())
        out += "\n  ";
    out += "]\n}\n";
    return out;
}

std::vector<PhaseId>
batchPhaseStream(const EncodedStream &stream,
                 const pred::PhaseTrackerConfig &cfg)
{
    pred::PhaseTracker tracker(cfg);
    IntervalPacket pkt;
    std::vector<PhaseId> out;
    out.reserve(stream.size());
    for (const auto &frame : stream) {
        decodePacket(frame.data(), frame.size(), pkt);
        out.push_back(tracker
                          .onIntervalRaw(pkt.counters.data(),
                                         pkt.counters.size(),
                                         pkt.total, pkt.cpi)
                          .classification.phase);
    }
    return out;
}

} // namespace tpcp::serve
