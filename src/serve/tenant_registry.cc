#include "serve/tenant_registry.hh"

#include <algorithm>
#include <string>

#include "common/state_io.hh"
#include "fault/injector.hh"

namespace tpcp::serve
{

ServeCounters &
ServeCounters::operator+=(const ServeCounters &o)
{
    for (const CounterField &f : kCounterFields)
        this->*f.member += o.*f.member;
    return *this;
}

TenantRegistry::TenantRegistry(const RegistryConfig &config)
    : cfg(config)
{
    tpcp_assert(cfg.maxResident > 0,
                "registry needs room for at least one resident tenant");
    tpcp_assert(!cfg.quarantine.enabled() ||
                    cfg.quarantine.backoffBase > 0,
                "quarantine backoff must be at least one tick");
}

TenantRegistry::Tenant &
TenantRegistry::touch(std::uint64_t tenant)
{
    Tenant &t = tenants_[tenant];
    t.id = tenant;
    return t;
}

void
TenantRegistry::evict(Tenant &t)
{
    StateWriter w;
    w.u64(t.id);
    t.tracker->saveState(w);
    t.checkpoint = sealStateFile(kTenantCheckpointMagic,
                                 kTenantCheckpointVersion, w);
    // Serve-layer fault injection: a "crash" between the eviction
    // and the next resume shows up as a torn, corrupted or missing
    // image — exactly what the injector plants here.
    if (injector_ != nullptr)
        injector_->corruptCheckpoint(t.checkpoint);
    t.tracker.reset();
    --residentCount;
    bump(t, &ServeCounters::evictions);
}

void
TenantRegistry::evictOldest()
{
    Tenant *oldest = nullptr;
    for (auto &kv : tenants_) {
        Tenant &t = kv.second;
        if (t.tracker == nullptr)
            continue;
        if (!oldest || t.lastActive < oldest->lastActive ||
            (t.lastActive == oldest->lastActive && t.id < oldest->id))
            oldest = &t;
    }
    tpcp_assert(oldest != nullptr,
                "no resident tenant to evict from a full registry");
    evict(*oldest);
}

void
TenantRegistry::activate(Tenant &t)
{
    const bool resumed = t.c.evictions > 0;
    std::vector<std::uint8_t> payload;
    if (resumed) {
        // Validate the image *before* evicting anyone, so a corrupt
        // image leaves the registry unchanged — a tenant stuck on a
        // damaged checkpoint must not churn healthy residents out on
        // every retry.
        try {
            payload = parseStateFile(
                t.checkpoint, kTenantCheckpointMagic,
                kTenantCheckpointVersion,
                "tenant " + std::to_string(t.id) + " checkpoint");
        } catch (const Error &) {
            bump(t, &ServeCounters::resumeFailures);
            offense(t);
            throw;
        }
    }
    if (residentCount == cfg.maxResident)
        evictOldest();
    t.tracker = std::make_unique<pred::PhaseTracker>(cfg.tracker);
    ++residentCount;
    if (resumed) {
        try {
            StateReader r(payload);
            const std::uint64_t saved_id = r.u64();
            if (saved_id != t.id)
                tpcp_raise("tenant checkpoint holds tenant ",
                           saved_id, ", expected ", t.id);
            t.tracker->loadState(r);
            if (!r.atEnd())
                tpcp_raise("tenant checkpoint has ", r.remaining(),
                           " trailing bytes");
        } catch (const Error &) {
            // Roll back so a half-restored tracker never stays
            // resident.
            t.tracker.reset();
            --residentCount;
            bump(t, &ServeCounters::resumeFailures);
            offense(t);
            throw;
        }
        t.checkpoint = {};
        bump(t, &ServeCounters::resumes);
    }
}

void
TenantRegistry::offense(Tenant &t)
{
    if (!cfg.quarantine.enabled())
        return;
    // Offenses during an active quarantine don't stack: the tenant
    // is already parked, and its residual staged frames (sheds,
    // quarantine drops) must not extend the backoff it is serving.
    if (t.quarantinedUntil != 0 && clock_ < t.quarantinedUntil)
        return;
    if (clock_ - t.offenseWindowStart > cfg.quarantine.offenseWindow) {
        t.offenses = 0;
        t.offenseWindowStart = clock_;
    }
    if (++t.offenses >= cfg.quarantine.offenseThreshold)
        quarantine(t);
}

void
TenantRegistry::quarantine(Tenant &t)
{
    // Park the tenant's tracker state through the normal eviction
    // path (checkpoint image); a tenant that was never activated, or
    // is already evicted, has nothing to park.
    if (t.tracker != nullptr)
        evict(t);
    ++t.quarantineCount;
    bump(t, &ServeCounters::quarantines);
    // Exponential backoff: base << (count - 1), saturating at the
    // cap (the shift is clamped so it cannot overflow).
    std::uint64_t backoff = cfg.quarantine.backoffCap;
    const std::uint64_t doublings = t.quarantineCount - 1;
    if (doublings < 63) {
        const std::uint64_t scaled =
            cfg.quarantine.backoffBase << doublings;
        // Detect shift overflow (result wrapped or lost bits).
        if ((scaled >> doublings) == cfg.quarantine.backoffBase)
            backoff = std::min(backoff, scaled);
    }
    t.quarantinedUntil = clock_ + backoff;
    t.offenses = 0;
    t.offenseWindowStart = clock_;
}

bool
TenantRegistry::isQuarantined(std::uint64_t tenant) const
{
    auto it = tenants_.find(tenant);
    return it != tenants_.end() &&
           it->second.quarantinedUntil != 0 &&
           clock_ < it->second.quarantinedUntil;
}

DeliverResult
TenantRegistry::deliverPacket(const IntervalPacket &pkt)
{
    ++clock_;
    Tenant &t = touch(pkt.tenant);

    if (t.quarantinedUntil != 0) {
        if (clock_ < t.quarantinedUntil) {
            bump(t, &ServeCounters::quarantineDrops);
            return {DeliverStatus::QuarantineDropped,
                    invalidPhaseId};
        }
        // Backoff expired: this packet readmits the tenant. The
        // tracker resumes from its parked image below, so
        // the phase stream continues exactly where it was parked.
        t.quarantinedUntil = 0;
        t.offenses = 0;
        t.offenseWindowStart = clock_;
        bump(t, &ServeCounters::readmissions);
    }

    if (t.tracker == nullptr)
        activate(t);

    // Sequence accounting before the tracker sees anything: a
    // duplicate or reordered packet must not advance phase state.
    if (pkt.seq < t.nextSeq) {
        bump(t, &ServeCounters::duplicateSeq);
        offense(t);
        tpcp_raise("tenant ", pkt.tenant, ": duplicate/reordered "
                   "sequence ", pkt.seq, " (expected ", t.nextSeq,
                   ")");
    }
    if (pkt.seq > t.nextSeq) {
        // A forward gap is a packet that was visibly dropped before
        // the tracker: a producer that counted drops under
        // backpressure, a shed frame, or a quarantine drop. Mirror
        // the count here so the loss is attributable at both ends.
        bump(t, &ServeCounters::lostUpstream, pkt.seq - t.nextSeq);
        ++counters_.seqGaps;
    }
    t.nextSeq = pkt.seq + 1;

    pred::PhaseTrackerOutput out = t.tracker->onIntervalRaw(
        pkt.counters.data(), pkt.counters.size(), pkt.total, pkt.cpi);

    bump(t, &ServeCounters::packets);
    t.lastActive = counters_.packets;
    if (out.phaseChanged)
        bump(t, &ServeCounters::phaseSwitches);
    if (cfg.recordPhases)
        t.phases.push_back(out.classification.phase);
    return {DeliverStatus::Delivered, out.classification.phase};
}

void
TenantRegistry::noteShed(std::uint64_t tenant)
{
    ++clock_;
    Tenant &t = touch(tenant);
    bump(t, &ServeCounters::shedPackets);
    offense(t);
}

void
TenantRegistry::noteMalformed(std::uint64_t tenant)
{
    ++clock_;
    // The header of a rejected frame is untrusted: an id nobody has
    // used yet gets no record, or garbage could grow the tenant map
    // without bound. Per tenant only: the service's malformed total
    // is the partition's count, which already holds this frame.
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return;
    ++it->second.c.malformedPackets;
    offense(it->second);
}

void
TenantRegistry::noteProducerStats(std::uint64_t tenant,
                                  std::uint64_t park_events,
                                  std::uint64_t dropped)
{
    Tenant &t = touch(tenant);
    t.c.parkEvents += park_events;
    t.c.packetsDropped += dropped;
}

std::size_t
TenantRegistry::evictIdle()
{
    if (cfg.evictAfter == 0)
        return 0;
    std::vector<Tenant *> idle;
    for (auto &kv : tenants_) {
        Tenant &t = kv.second;
        if (t.tracker != nullptr &&
            counters_.packets - t.lastActive >= cfg.evictAfter)
            idle.push_back(&t);
    }
    for (Tenant *t : idle)
        evict(*t);
    return idle.size();
}

std::size_t
TenantRegistry::evictAll()
{
    std::size_t n = 0;
    for (auto &kv : tenants_) {
        if (kv.second.tracker != nullptr) {
            evict(kv.second);
            ++n;
        }
    }
    return n;
}

void
TenantRegistry::adoptTenant(MigratedTenant m)
{
    if (hasTenant(m.id))
        tpcp_raise("cannot adopt tenant ", m.id,
                   ": it already exists in this registry");
    Tenant &t = touch(m.id);
    t.nextSeq = m.nextSeq;
    t.c = m.c;
    t.quarantineCount = m.c.quarantines;
    if (m.quarantineRemaining > 0)
        t.quarantinedUntil = clock_ + m.quarantineRemaining;
    t.offenseWindowStart = clock_;
    // The tracker stays parked: activate() resumes it from the
    // bundled image on the tenant's first packet, exactly like a
    // locally evicted tenant.
    t.checkpoint = std::move(m.checkpoint);
}

MigratedTenant
TenantRegistry::migratedState(std::uint64_t tenant) const
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        tpcp_raise("unknown tenant ", tenant);
    const Tenant &t = it->second;
    tpcp_assert(t.tracker == nullptr,
                "migratedState needs the tenant evicted first");
    MigratedTenant m;
    m.id = t.id;
    m.nextSeq = t.nextSeq;
    m.c = t.c;
    m.quarantineRemaining = t.quarantinedUntil > clock_
                                ? t.quarantinedUntil - clock_
                                : 0;
    m.checkpoint = t.checkpoint;
    return m;
}

std::vector<std::uint8_t> &
TenantRegistry::checkpointImage(std::uint64_t tenant)
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        tpcp_raise("unknown tenant ", tenant);
    return it->second.checkpoint;
}

std::vector<std::uint64_t>
TenantRegistry::tenantIds() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(tenants_.size());
    for (const auto &kv : tenants_)
        ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    return ids;
}

const ServeCounters &
TenantRegistry::tenantCounters(std::uint64_t tenant) const
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        tpcp_raise("unknown tenant ", tenant);
    return it->second.c;
}

const std::vector<PhaseId> &
TenantRegistry::phaseStream(std::uint64_t tenant) const
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        tpcp_raise("unknown tenant ", tenant);
    tpcp_assert(cfg.recordPhases,
                "phase streams are recorded only with recordPhases");
    return it->second.phases;
}

} // namespace tpcp::serve
