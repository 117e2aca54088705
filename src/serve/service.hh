/**
 * @file
 * The streaming multi-tenant phase service: N producer rings, each
 * drained into its own TenantRegistry partition on the shared
 * thread pool.
 *
 * Concurrency model. Each ring is strictly SPSC: one producer thread
 * pushes, and in any drain cycle at most one pool task pops it. The
 * service submits one drain task per ring, waits for the cycle, and
 * repeats until every producer has signalled done, every ring is
 * empty and every flow backlog is drained. Registries are confined to
 * their ring's drain task, so no tenant state is ever touched from
 * two threads — which is also why per-tenant phase-ID streams are
 * byte-identical to the batch PhaseTracker path at any producer
 * count.
 *
 * Overload resilience (all off by default — zero-valued FairnessConfig
 * reproduces the plain FIFO drain bit for bit). With any fairness
 * knob set, each partition stages popped frames into a per-tenant
 * FlowScheduler and serves them deficit-round-robin under a token-
 * bucket rate limit, so one hot or adversarial tenant can no longer
 * starve its co-tenants; frames beyond a tenant's backlog bound are
 * shed, counted per tenant. Combined with the registry's quarantine
 * policy, degradation under overload is graceful and fully
 * accounted: every pushed frame ends up as exactly one of delivered,
 * malformed, rejected, shed or quarantine-dropped.
 *
 * Error containment. Frame and packet validation failures, sequence
 * violations, and resume failures raise recoverable tpcp::Error
 * inside the drain task; the service counts them (malformedPackets /
 * rejectedPackets) and keeps consuming. Nothing a producer can put
 * in a ring crashes the service.
 */

#ifndef TPCP_SERVE_SERVICE_HH
#define TPCP_SERVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "serve/flow_sched.hh"
#include "serve/producer.hh"
#include "serve/ring_buffer.hh"
#include "serve/tenant_registry.hh"

namespace tpcp::fault
{
class Injector;
} // namespace tpcp::fault

namespace tpcp::serve
{

/** Service configuration. */
struct ServeOptions
{
    /** Per-partition registry configuration (each producer ring gets
     * its own registry built from this). */
    RegistryConfig registry;
    /** Per-tenant rate limiting / drain fairness (off by default). */
    FairnessConfig fairness;
    /** Producer rings (= partitions). */
    unsigned producers = 1;
    /** Pool worker threads (0 = hardware concurrency). */
    unsigned jobs = 0;
    /** Capacity of each ring, bytes (rounded up to a power of two).
     * Sized so a parked producer amortizes its wakeup over thousands
     * of frames — small rings thrash the scheduler. */
    std::size_t ringBytes = 1u << 20;
    /** Frames popped from one ring per drain task, bounding how long
     * a cycle can monopolize a worker. */
    std::size_t drainBatch = 512;
};

/** One tenant's row in the service report. */
struct ServeTenantReport
{
    std::uint64_t tenant = 0;
    ServeCounters c;
};

/** Machine-readable run summary (tpcp serve --json). */
struct ServeReport
{
    unsigned tenants = 0;
    unsigned producers = 0;
    unsigned jobs = 0;
    std::uint64_t packetsProduced = 0;
    std::uint64_t packetsDropped = 0;
    std::uint64_t parkEvents = 0;
    ServeCounters service;
    double elapsedSec = 0.0;
    double packetsPerSec = 0.0;
    std::vector<ServeTenantReport> perTenant;
};

std::string toJson(const ServeReport &r);

/**
 * The batch reference path: decodes @p stream and replays it through
 * one fresh owned-table PhaseTracker, exactly as an offline `tpcp
 * predict` run would. The service's per-tenant phase-ID streams must
 * be byte-identical to this — including across evict/resume, at any
 * producer count, and across a migrate-out/migrate-in handoff.
 */
std::vector<PhaseId>
batchPhaseStream(const EncodedStream &stream,
                 const pred::PhaseTrackerConfig &cfg);

/** The service: owns the rings, the partitions and the pool. */
class ServiceLoop
{
  public:
    explicit ServiceLoop(const ServeOptions &options);
    ~ServiceLoop();

    /** Ring for producer @p i to push into (one thread per ring). */
    SpscRing &ring(unsigned i);

    /** Marks producer @p i finished; run() returns once every
     * producer is done and every ring drained. */
    void producerDone(unsigned i);

    /**
     * Drains all rings to completion. Call after the producer
     * threads are started (it blocks until they all signalled done).
     */
    void run();

    /**
     * Runs exactly one drain cycle inline on the calling thread (no
     * pool involvement): each partition pops up to drainBatch frames
     * and serves its backlog once. Returns the cycle's total
     * activity (frames popped + frames served). This is the lockstep
     * entry point the chaos harness drives — interleaved push /
     * runCycle sequences on one thread are deterministic bit for
     * bit, independent of --jobs.
     */
    std::size_t runCycle();

    unsigned numPartitions() const;
    /** Pool worker threads actually running. */
    unsigned numWorkers() const { return pool_.numThreads(); }
    const TenantRegistry &registry(unsigned i) const;
    /** The service totals: every partition's registry totals plus
     * its malformed and rejected counts, the tenant count and the
     * drain cycles. */
    ServeCounters counters() const;

    /**
     * Merges producer-side backpressure counters for @p tenant into
     * its partition's registry (park stalls, drops). Call after the
     * producer threads joined — counter records, like drains, are
     * partition-confined. @p partition must be the ring the tenant's
     * producer pushed into.
     */
    void noteProducerStats(unsigned partition, std::uint64_t tenant,
                           std::uint64_t park_events,
                           std::uint64_t dropped);

    /**
     * Arms serve-layer fault injection for partition @p i: frames
     * popped from the ring may take bit flips, and evicted tenants'
     * checkpoint images may be torn, corrupted or lost. One injector per
     * partition (it is used from that partition's drain task only);
     * must outlive the service loop.
     */
    void setFaultInjector(unsigned i, fault::Injector *injector);

    /**
     * Migrates every tenant out into a crash-consistent bundle at
     * @p bundle_dir: evicts all resident tenants (sealing their
     * checkpoint images), snapshots every tenant's sequence/counter/
     * quarantine state, and commits the bundle manifest last,
     * atomically. The service must be quiescent (run() returned).
     */
    void migrateOut(const std::string &bundle_dir);

    /**
     * Validates the bundle at @p bundle_dir end to end and adopts
     * each tenant, with its checkpoint image, into partition
     * (id % numPartitions()) — the same
     * mapping the CLI uses to assign tenants to producers. Returns
     * the number of tenants adopted. A damaged bundle raises a
     * recoverable tpcp::Error before any tenant is adopted. Call
     * before run().
     */
    std::size_t migrateIn(const std::string &bundle_dir);

    /** All tenant ids across partitions, ascending. */
    std::vector<std::uint64_t> allTenantIds() const;
    /** Counters for @p tenant, wherever it lives. */
    const ServeCounters &tenantCounters(std::uint64_t tenant) const;
    /** Recorded phase stream for @p tenant (requires
     * registry.recordPhases). */
    const std::vector<PhaseId> &
    phaseStream(std::uint64_t tenant) const;

  private:
    /** One partition: a ring, its registry, and drain scratch. */
    struct Partition
    {
        Partition(std::size_t ring_bytes, const RegistryConfig &rc,
                  const FairnessConfig &fc);

        SpscRing ring;
        TenantRegistry registry;
        /** Flow scheduler (null when fairness is disabled: the
         * drain path is then the plain FIFO pop-decode-deliver). */
        std::unique_ptr<FlowScheduler> sched;
        fault::Injector *injector = nullptr;
        /** Producer-done flag (set by the producer thread). */
        std::atomic<bool> done{false};
        /** Activity (frames popped + served) in the current cycle
         * (written only by this partition's drain task; read after
         * pool.wait()). */
        std::size_t drained = 0;
        std::uint64_t malformed = 0;
        std::uint64_t rejected = 0;
        /** Decode scratch, reused across frames. */
        std::vector<std::uint8_t> frame;
        IntervalPacket pkt;
    };

    /** Pops up to drainBatch frames from partition @p p and, with
     * fairness on, serves its flow backlog once. */
    void drainOne(Partition &p);

    /** Decodes and delivers one frame (a FIFO pop or a scheduler
     * release), counting a malformed one against the tenant its
     * header names. */
    void deliverFrame(Partition &p, const std::uint8_t *data,
                      std::size_t size);

    const TenantRegistry *findTenant(std::uint64_t tenant) const;

    ServeOptions opts;
    std::vector<std::unique_ptr<Partition>> parts_;
    std::uint64_t drainCycles_ = 0;
    ThreadPool pool_;
};

} // namespace tpcp::serve

#endif // TPCP_SERVE_SERVICE_HH
