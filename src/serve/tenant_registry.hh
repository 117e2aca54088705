/**
 * @file
 * Per-tenant phase-tracking state for the streaming service.
 *
 * Each resident tenant owns an independent PhaseTracker (classifier
 * with its own tables + next-phase + run-length predictors), the
 * same unit batchPhaseStream() builds, so a worker thread driving
 * one registry shares no classifier state with any other. A
 * registry is deliberately single-threaded: the service assigns
 * each tenant to exactly one producer ring and each ring to one
 * registry, so per-tenant packet order — and therefore every
 * phase-ID stream — is identical to the batch path regardless of
 * how many producers or workers are running.
 *
 * At most maxResident trackers are resident at once. An idle tenant
 * is evicted to a checkpoint image held in memory and its tracker is
 * destroyed: the image holds its saveState bytes sealed in the
 * checksummed common/state_io envelope, byte for byte what a state
 * file holds. The next packet for an evicted tenant transparently
 * resumes it into a newly built tracker (loadState fully restores
 * one). Eviction and resume never change a tenant's phase-ID stream.
 * A resume whose image is missing, truncated or corrupt raises a
 * recoverable tpcp::Error, is counted (resumeFailures, per tenant
 * and registry-wide), and leaves every other tenant serving.
 *
 * Quarantine-and-readmit: a tenant accumulating offenses (duplicate
 * sequences, malformed frames, backlog sheds, resume failures)
 * faster than the configured threshold is quarantined — its state is
 * parked through the normal eviction path and its packets are
 * dropped (counted, per tenant) until an exponential backoff expires;
 * the first packet after the backoff readmits it, resuming from the
 * checkpoint. A misbehaving producer therefore costs bounded service
 * capacity, and every transition is visible in the counters.
 *
 * Sequence numbers make loss visible: a duplicate or reordered
 * packet is rejected with a recoverable tpcp::Error, and a forward
 * gap (a producer that counted drops under backpressure, or frames
 * the consumer itself shed or quarantine-dropped) is counted as
 * lost-upstream packets — nothing is ever lost silently.
 */

#ifndef TPCP_SERVE_TENANT_REGISTRY_HH
#define TPCP_SERVE_TENANT_REGISTRY_HH

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "pred/phase_tracker.hh"
#include "serve/packet.hh"

namespace tpcp::fault
{
class Injector;
} // namespace tpcp::fault

namespace tpcp::serve
{

/** Envelope tag of an evicted tenant's checkpoint ("TSRV"). */
inline constexpr std::uint32_t kTenantCheckpointMagic = 0x56525354;
// v2: the tracker image no longer carries an accumulator block.
inline constexpr std::uint32_t kTenantCheckpointVersion = 2;

/** Quarantine-and-readmit policy (off by default). */
struct QuarantineConfig
{
    /** Offenses (duplicate seq, malformed, shed, resume failure)
     * within one window that trigger quarantine (0 = disabled). */
    std::uint64_t offenseThreshold = 0;
    /** Offense-counting window, in registry clock ticks (packets
     * seen by the registry). */
    std::uint64_t offenseWindow = 1024;
    /** First quarantine lasts this many clock ticks; each
     * re-quarantine doubles it. */
    std::uint64_t backoffBase = 256;
    /** Backoff ceiling, in clock ticks. */
    std::uint64_t backoffCap = 1u << 20;

    bool enabled() const { return offenseThreshold != 0; }
};

/** Registry configuration. */
struct RegistryConfig
{
    /** Per-tenant tracker (classifier + predictor) configuration. */
    pred::PhaseTrackerConfig tracker;
    /** Most trackers resident at once. */
    unsigned maxResident = 64;
    /** Evict a tenant once this many packets were delivered to the
     * registry without any for it (0 = only forced eviction when a
     * new tenant finds maxResident trackers resident). */
    std::uint64_t evictAfter = 0;
    /** Record every tenant's full phase-ID stream (identity
     * verification; keep off for large tenant counts). */
    bool recordPhases = false;
    /** Quarantine-and-readmit policy. */
    QuarantineConfig quarantine;
};

/**
 * The serve layer's one counter set: a tenant's record, a registry's
 * totals and the service-wide sum (ServiceLoop::counters()).
 *
 * Totals count only what this service did; a migrated tenant's
 * lifetime counters land in its own record (adoptTenant), so totals
 * are not a sum over tenant records. parkEvents and packetsDropped
 * are per tenant only. The totals' malformedPackets is the
 * partition's count, which also holds unattributable frames, so the
 * registry leaves its own at zero. The last four are totals only.
 */
struct ServeCounters
{
    std::uint64_t packets = 0;
    std::uint64_t phaseSwitches = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resumes = 0;
    std::uint64_t duplicateSeq = 0;
    std::uint64_t lostUpstream = 0;
    /** Malformed frames attributed to this tenant (header readable,
     * payload rejected by decodePacket). */
    std::uint64_t malformedPackets = 0;
    /** Frames shed by the flow scheduler (backlog full). */
    std::uint64_t shedPackets = 0;
    /** Producer-side full-ring stalls for this tenant's pushes. */
    std::uint64_t parkEvents = 0;
    /** Producer-side drops (ring full, park budget exhausted). */
    std::uint64_t packetsDropped = 0;
    /** Times this tenant entered quarantine. */
    std::uint64_t quarantines = 0;
    /** Packets dropped while the tenant was quarantined. */
    std::uint64_t quarantineDrops = 0;
    /** Times the tenant was readmitted after backoff. */
    std::uint64_t readmissions = 0;
    /** Resume attempts that failed on a damaged checkpoint image. */
    std::uint64_t resumeFailures = 0;
    std::uint64_t seqGaps = 0;
    /** Packets the registry refused (sequence, capacity, resume). */
    std::uint64_t rejectedPackets = 0;
    std::uint64_t tenants = 0;
    std::uint64_t drainCycles = 0;

    ServeCounters &operator+=(const ServeCounters &o);

    /** Frames with a counted end: delivered, malformed, rejected,
     * shed or quarantine-dropped. Every pushed frame is one of them,
     * so this equals the frames pushed unless one was lost silently. */
    std::uint64_t
    accounted() const
    {
        return packets + malformedPackets + rejectedPackets +
               shedPackets + quarantineDrops;
    }
};

/** One counter: its JSON key and its member. */
struct CounterField
{
    const char *name;
    std::uint64_t ServeCounters::*member;
};

/** Every counter. The first 14 are the per-tenant ones. */
inline constexpr CounterField kCounterFields[] = {
    {"packets", &ServeCounters::packets},
    {"phase_switches", &ServeCounters::phaseSwitches},
    {"evictions", &ServeCounters::evictions},
    {"resumes", &ServeCounters::resumes},
    {"duplicate_seq", &ServeCounters::duplicateSeq},
    {"lost_upstream", &ServeCounters::lostUpstream},
    {"malformed_packets", &ServeCounters::malformedPackets},
    {"shed_packets", &ServeCounters::shedPackets},
    {"park_events", &ServeCounters::parkEvents},
    {"packets_dropped", &ServeCounters::packetsDropped},
    {"quarantines", &ServeCounters::quarantines},
    {"quarantine_drops", &ServeCounters::quarantineDrops},
    {"readmissions", &ServeCounters::readmissions},
    {"resume_failures", &ServeCounters::resumeFailures},
    {"seq_gaps", &ServeCounters::seqGaps},
    {"rejected_packets", &ServeCounters::rejectedPackets},
    {"tenants", &ServeCounters::tenants},
    {"drain_cycles", &ServeCounters::drainCycles},
};
static_assert(std::size(kCounterFields) * sizeof(std::uint64_t) ==
                  sizeof(ServeCounters),
              "kCounterFields must list every counter");

/** A tenant's counters, in the order both the TMIG migration
 * manifest and the per-tenant JSON row carry them. */
inline constexpr std::span<const CounterField, 14>
    kTenantCounterFields{kCounterFields, 14};

/** What deliverPacket() did with a packet. */
enum class DeliverStatus
{
    Delivered,         ///< classified; phase is valid
    QuarantineDropped, ///< tenant quarantined; packet counted+dropped
};

struct DeliverResult
{
    DeliverStatus status = DeliverStatus::Delivered;
    PhaseId phase = invalidPhaseId;
};

/** One tenant's state carried across a migration bundle. */
struct MigratedTenant
{
    std::uint64_t id = 0;
    std::uint64_t nextSeq = 0;
    ServeCounters c;
    /** Remaining quarantine backoff at migration time (clock
     * ticks); 0 = not quarantined. */
    std::uint64_t quarantineRemaining = 0;
    /** The sealed checkpoint image (empty for tenants that were only
     * ever counted, never activated). */
    std::vector<std::uint8_t> checkpoint;
};

/** The tenants of one service partition. */
class TenantRegistry
{
  public:
    explicit TenantRegistry(const RegistryConfig &config);

    /**
     * Applies one decoded packet to its tenant, creating, resuming
     * or readmitting the tenant first when needed. Raises
     * tpcp::Error for duplicate/reordered sequence numbers and for
     * damaged resume images; the caller counts the rejection and
     * carries on —
     * a bad packet never crashes the service. A quarantined tenant's
     * packet is dropped and counted instead (no throw: quarantine is
     * policy, not failure).
     */
    DeliverResult deliverPacket(const IntervalPacket &pkt);

    /**
     * Counts a flow-scheduler shed against @p tenant (and as an
     * offense), creating the tenant's counter record if needed —
     * a tenant whose every frame was shed is still visible.
     */
    void noteShed(std::uint64_t tenant);

    /** Counts a malformed frame against @p tenant (and as an
     * offense) when the registry already knows that tenant; a frame
     * naming an unknown id creates no record and stays a
     * partition-level count. */
    void noteMalformed(std::uint64_t tenant);

    /** Merges producer-side backpressure counters for @p tenant
     * (park stalls and drops) into its counter record. */
    void noteProducerStats(std::uint64_t tenant,
                           std::uint64_t park_events,
                           std::uint64_t dropped);

    /** Evicts every resident tenant idle for at least
     * config.evictAfter delivered packets (no-op when evictAfter is
     * 0). Returns the number evicted. */
    std::size_t evictIdle();

    /** Evicts every resident tenant unconditionally (shutdown /
     * final-state flush / migration). */
    std::size_t evictAll();

    /**
     * Seeds a tenant from a migration bundle entry: sequence state,
     * counters and quarantine backoff are restored now; the tracker
     * itself resumes lazily from the entry's checkpoint image on the
     * tenant's first packet. Raises tpcp::Error if the tenant already
     * exists.
     */
    void adoptTenant(MigratedTenant t);

    /** Snapshot of a tenant's migratable state (for the bundle
     * manifest). The tenant must be non-resident (evictAll first). */
    MigratedTenant migratedState(std::uint64_t tenant) const;

    /**
     * Arms serve-layer fault injection: after every eviction,
     * @p injector may damage the checkpoint image (torn, bit flip,
     * emptied, gone). The injector must outlive the registry and is
     * used only from the thread driving this registry.
     */
    void setFaultInjector(fault::Injector *injector)
    {
        injector_ = injector;
    }

    /** This registry's totals (see ServeCounters for what they
     * hold). */
    const ServeCounters &counters() const { return counters_; }

    /** Tenants ever seen (resident + evicted). */
    std::size_t numTenants() const { return tenants_.size(); }

    /** Currently resident tenants. */
    std::size_t
    numResident() const
    {
        return static_cast<std::size_t>(residentCount);
    }

    /** Tenant ids ever seen, in ascending order. */
    std::vector<std::uint64_t> tenantIds() const;

    /** Whether @p tenant has ever been seen by this registry. */
    bool
    hasTenant(std::uint64_t tenant) const
    {
        return tenants_.find(tenant) != tenants_.end();
    }

    /** Whether @p tenant is currently quarantined. */
    bool isQuarantined(std::uint64_t tenant) const;

    /** Per-tenant counters; raises tpcp::Error for unknown ids. */
    const ServeCounters &tenantCounters(std::uint64_t tenant) const;

    /** Recorded phase-ID stream (requires config.recordPhases). */
    const std::vector<PhaseId> &
    phaseStream(std::uint64_t tenant) const;

    /** The checkpoint image parked for @p tenant since its last
     * eviction (empty while it is resident or if it was never
     * evicted). Mutable so a fault campaign can damage it in place;
     * raises tpcp::Error for unknown ids. */
    std::vector<std::uint8_t> &checkpointImage(std::uint64_t tenant);

  private:
    struct Tenant
    {
        std::uint64_t id = 0;
        /** Non-null exactly while the tenant is resident. */
        std::unique_ptr<pred::PhaseTracker> tracker;
        std::uint64_t nextSeq = 0;
        /** Registry packet clock at the last delivered packet. */
        std::uint64_t lastActive = 0;
        /** Offenses inside the current window. */
        std::uint64_t offenses = 0;
        std::uint64_t offenseWindowStart = 0;
        /** Clock tick the quarantine expires at (0 = not
         * quarantined). */
        std::uint64_t quarantinedUntil = 0;
        /** Lifetime quarantine count (drives the backoff). */
        std::uint64_t quarantineCount = 0;
        ServeCounters c;
        std::vector<PhaseId> phases;
        /** The sealed checkpoint image while evicted; empty once a
         * resume succeeds. */
        std::vector<std::uint8_t> checkpoint;
    };

    /** Builds a tenant's tracker (fresh or resumed from its
     * checkpoint image), first evicting the least-recently-active
     * tenant when maxResident trackers are resident. */
    void activate(Tenant &t);

    /** Seals @p t's tracker state into its checkpoint image and
     * destroys the tracker. */
    void evict(Tenant &t);

    /** Evicts the least-recently-active resident tenant. */
    void evictOldest();

    /** Finds-or-creates the counter record for @p tenant. */
    Tenant &touch(std::uint64_t tenant);

    /** Adds @p n to counter @p field on @p t's record and on the
     * registry totals. */
    void
    bump(Tenant &t, std::uint64_t ServeCounters::*field,
         std::uint64_t n = 1)
    {
        t.c.*field += n;
        counters_.*field += n;
    }

    /** Counts one offense for @p t; quarantines on threshold. */
    void offense(Tenant &t);

    /** Puts @p t into quarantine: park it, start the (exponential)
     * backoff clock. */
    void quarantine(Tenant &t);

    RegistryConfig cfg;
    std::unordered_map<std::uint64_t, Tenant> tenants_;
    ServeCounters counters_;
    unsigned residentCount = 0;
    /** Monotonic clock: every packet the registry *sees* (delivered,
     * rejected, quarantine-dropped, shed, malformed) advances it, so
     * backoffs expire even under a pure garbage flood. */
    std::uint64_t clock_ = 0;
    fault::Injector *injector_ = nullptr;
};

} // namespace tpcp::serve

#endif // TPCP_SERVE_TENANT_REGISTRY_HH
