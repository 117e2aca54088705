/**
 * @file
 * Per-tenant flow scheduling for the streaming service's drain path:
 * token-bucket rate limiting, deficit-round-robin (DRR) service
 * order, and bounded per-tenant backlog with counted shedding.
 *
 * Why a scheduler at all: the PR 7 drain loop popped frames straight
 * off the ring FIFO, so one hot or adversarial tenant filled the ring
 * and took the whole drain budget — co-tenants on the same partition
 * were starved in exact proportion to the aggressor's arrival rate.
 * The scheduler decouples arrival order from service order: frames
 * are staged into per-tenant FIFO queues and served deficit-round-
 * robin, so every backlogged tenant gets the same share of the drain
 * budget regardless of who shouted loudest into the ring.
 *
 * Invariants the service's conservation identity leans on:
 *  - an arriving frame is either drained (handed to the sink
 *    exactly once) or shed (stage() returns false and the service
 *    counts it against the tenant) — never both, never neither;
 *  - per-tenant frame order is FIFO end to end, so a tenant whose
 *    frames are all drained produces a phase-ID stream byte-identical
 *    to the batch path (fairness reorders *between* tenants only);
 *  - everything is deterministic: the DRR active list is ordered by
 *    activation (arrival of the first backlogged frame), tokens
 *    refill per drain cycle, and no clock or RNG is consulted, so a
 *    lockstep replay reproduces every shed and every service order
 *    bit for bit.
 */

#ifndef TPCP_SERVE_FLOW_SCHED_HH
#define TPCP_SERVE_FLOW_SCHED_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/status.hh"

namespace tpcp::serve
{

/** Per-tenant rate limiting / drain fairness knobs (all off by
 * default: zero values reproduce the PR 7 FIFO drain exactly). */
struct FairnessConfig
{
    /** Token-bucket refill per tenant per drain cycle, in packets
     * (0 = unlimited: no rate limiting). */
    std::uint64_t ratePerCycle = 0;
    /** Token-bucket capacity (0 = ratePerCycle: no burst credit). */
    std::uint64_t burst = 0;
    /** DRR deficit added per tenant per service round, in packets. */
    std::uint64_t drrQuantum = 16;
    /** Max staged frames per tenant; arrivals beyond it are shed,
     * counted per tenant (0 = unbounded backlog, never shed). */
    std::uint64_t maxBacklog = 0;
    /** Total frames delivered per partition per drain cycle
     * (0 = the service's drainBatch). */
    std::uint64_t cycleBudget = 0;

    /** True when any resilience knob is set: the service stages
     * frames through a FlowScheduler instead of FIFO delivery. */
    bool
    enabled() const
    {
        return ratePerCycle != 0 || maxBacklog != 0 ||
               cycleBudget != 0;
    }
};

/**
 * The per-partition flow scheduler. Single-threaded by design (each
 * partition's drain task owns one), like the registry it feeds.
 *
 * A flow record exists only while its tenant has staged frames or a
 * token bucket below `burst`; a new flow starts with a full bucket.
 * Frame headers are untrusted, so a record that outlived both would
 * let every id ever peeked grow the scheduler without bound.
 */
class FlowScheduler
{
  public:
    explicit FlowScheduler(const FairnessConfig &config) : cfg(config)
    {
        if (cfg.ratePerCycle != 0 && cfg.burst == 0)
            cfg.burst = cfg.ratePerCycle;
        tpcp_assert(cfg.drrQuantum >= 1,
                    "DRR quantum must be at least one frame");
    }

    /**
     * Stages one arriving frame for @p tenant. Returns true when the
     * frame was queued; false when the tenant's backlog was full and
     * the frame was shed (the caller counts the shed against the
     * tenant).
     */
    bool
    stage(std::uint64_t tenant, const std::uint8_t *frame,
          std::size_t len)
    {
        auto [it, created] = flows_.try_emplace(tenant);
        Flow &f = it->second;
        if (created)
            f.tokens = cfg.burst;
        if (cfg.maxBacklog != 0 &&
            f.queue.size() >= cfg.maxBacklog)
            return false;
        f.queue.emplace_back(frame, frame + len);
        ++backlog_;
        if (f.queue.size() == 1)
            active_.push_back(tenant);
        return true;
    }

    /** Starts a drain cycle: refills every flow's token bucket and
     * drops the records of idle flows whose bucket is full again. */
    void
    beginCycle()
    {
        if (cfg.ratePerCycle == 0)
            return;
        for (auto it = flows_.begin(); it != flows_.end();) {
            Flow &f = it->second;
            f.tokens = std::min<std::uint64_t>(
                cfg.burst, f.tokens + cfg.ratePerCycle);
            if (f.queue.empty() && f.tokens == cfg.burst)
                it = flows_.erase(it);
            else
                ++it;
        }
    }

    /**
     * Serves up to @p budget staged frames deficit-round-robin
     * across the active flows, bounded per flow by its token bucket.
     * @p sink is called as sink(tenant, frame) for each served
     * frame, in per-tenant FIFO order. Returns frames served.
     */
    template <typename Sink>
    std::size_t
    drain(std::size_t budget, Sink &&sink)
    {
        std::size_t served = 0;
        bool progress = true;
        while (served < budget && !active_.empty() && progress) {
            progress = false;
            // One DRR round: every active flow gets one quantum and
            // serves as much of its backlog as deficit, tokens and
            // the cycle budget allow.
            const std::size_t round = active_.size();
            for (std::size_t i = 0; i < round && served < budget;
                 ++i) {
                const std::uint64_t tenant = active_.front();
                active_.pop_front();
                auto it = flows_.find(tenant);
                Flow &f = it->second;
                f.deficit += cfg.drrQuantum;
                while (!f.queue.empty() && f.deficit >= 1 &&
                       served < budget &&
                       (cfg.ratePerCycle == 0 || f.tokens >= 1)) {
                    sink(tenant, f.queue.front());
                    f.queue.pop_front();
                    --backlog_;
                    --f.deficit;
                    if (cfg.ratePerCycle != 0)
                        --f.tokens;
                    ++served;
                    progress = true;
                }
                if (f.queue.empty()) {
                    // Empty flows leave the rotation (and forfeit
                    // their deficit: DRR's anti-hoarding rule); with
                    // a full bucket (always, without rate limiting)
                    // nothing is left to remember.
                    f.deficit = 0;
                    if (f.tokens == cfg.burst)
                        flows_.erase(it);
                } else {
                    active_.push_back(tenant);
                }
            }
            // No flow could serve (all throttled): the cycle is
            // over; leftover backlog waits for the next refill.
        }
        return served;
    }

    /** True when no staged frame is pending. */
    bool idle() const { return backlog_ == 0; }

    /** Staged frames currently pending across all flows. */
    std::size_t backlog() const { return backlog_; }

    /** Flow records currently held (backlogged or refilling). */
    std::size_t trackedFlows() const { return flows_.size(); }

    const FairnessConfig &config() const { return cfg; }

  private:
    struct Flow
    {
        std::deque<std::vector<std::uint8_t>> queue;
        std::uint64_t tokens = 0;
        std::uint64_t deficit = 0;
    };

    FairnessConfig cfg;
    std::unordered_map<std::uint64_t, Flow> flows_;
    /** Backlogged flows in activation order. */
    std::deque<std::uint64_t> active_;
    std::size_t backlog_ = 0;
};

} // namespace tpcp::serve

#endif // TPCP_SERVE_FLOW_SCHED_HH
