#include "sample/selector.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "analysis/experiment.hh"
#include "analysis/offline_kmeans.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/rng.hh"
#include "phase/classifier_config.hh"
#include "sample/planner.hh"
#include "sample/strata.hh"

namespace tpcp::sample
{

PhaseSource
phaseSourceByName(const std::string &name)
{
    if (name == "online")
        return PhaseSource::Online;
    if (name == "offline")
        return PhaseSource::Offline;
    tpcp_raise("unknown phase source '", name,
               "' (expected 'online' or 'offline')");
}

const char *
phaseSourceName(PhaseSource source)
{
    return source == PhaseSource::Online ? "online" : "offline";
}

std::vector<PhaseId>
phaseIdStream(const trace::IntervalProfile &profile,
              PhaseSource source)
{
    if (source == PhaseSource::Online) {
        analysis::ClassificationResult res =
            analysis::classifyProfile(
                profile, phase::ClassifierConfig::paperDefault());
        return res.trace.phases;
    }
    analysis::OfflineResult res =
        analysis::classifyOffline(profile);
    std::vector<PhaseId> ids;
    ids.reserve(res.assignments.size());
    for (auto a : res.assignments)
        ids.push_back(a + 1);
    return ids;
}

namespace
{

/** Strata sorted by descending instruction share (stable on the
 * first-appearance order), truncated to @p budget entries. */
std::vector<std::size_t>
topStrataByInsts(const Strata &strata, std::size_t budget)
{
    std::vector<std::size_t> top(strata.order.size());
    std::iota(top.begin(), top.end(), std::size_t{0});
    std::stable_sort(top.begin(), top.end(),
                     [&](std::size_t a, std::size_t b) {
                         return strata.insts[a] > strata.insts[b];
                     });
    if (top.size() > budget)
        top.resize(budget);
    return top;
}

} // namespace

RowMatrix
signatureRows(const SelectorContext &ctx)
{
    unsigned dims = ctx.dims;
    bool have = false;
    for (unsigned d : ctx.profile.dims())
        have |= (d == dims);
    if (!have)
        dims = ctx.profile.dims().front();
    return analysis::normalizedIntervalVectors(ctx.profile, dims);
}

namespace
{

Selection
finish(std::vector<std::size_t> picks)
{
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()),
                picks.end());
    return Selection{std::move(picks)};
}

/** One representative per phase: its first interval. */
class FirstPerPhaseSelector : public Selector
{
  public:
    std::string name() const override { return "first"; }

    Selection
    select(const SelectorContext &ctx,
           std::size_t budget) const override
    {
        Strata strata = buildStrata(ctx.profile, ctx.phases);
        std::vector<std::size_t> picks;
        for (std::size_t h : topStrataByInsts(strata, budget))
            picks.push_back(strata.members[h].front());
        return finish(std::move(picks));
    }
};

/**
 * One representative per phase: the member whose normalized
 * signature vector is nearest the phase's mean vector — SimPoint's
 * rule for choosing the simulation point of a cluster.
 */
class CentroidSelector : public Selector
{
  public:
    std::string name() const override { return "centroid"; }

    Selection
    select(const SelectorContext &ctx,
           std::size_t budget) const override
    {
        Strata strata = buildStrata(ctx.profile, ctx.phases);
        RowMatrix rows = signatureRows(ctx);
        std::vector<std::size_t> picks;
        for (std::size_t h : topStrataByInsts(strata, budget))
            picks.push_back(centroidNearest(strata.members[h], rows));
        return finish(std::move(picks));
    }
};

/** Two-phase stratified sampling; allocation lives in the planner so
 * predicted and achieved error share one code path. */
class StratifiedSelector : public Selector
{
  public:
    std::string name() const override { return "stratified"; }

    Selection
    select(const SelectorContext &ctx,
           std::size_t budget) const override
    {
        return realizePlan(planBudget(ctx, budget));
    }
};

/** Evenly spaced intervals over the whole run (systematic sampling,
 * as SMARTS does); ignores phases entirely. */
class UniformSelector : public Selector
{
  public:
    std::string name() const override { return "uniform"; }

    Selection
    select(const SelectorContext &ctx,
           std::size_t budget) const override
    {
        std::size_t n = ctx.profile.numIntervals();
        std::size_t take = std::min(budget, n);
        std::vector<std::size_t> picks;
        for (std::size_t j = 0; j < take; ++j) {
            double frac = (static_cast<double>(j) + 0.5) /
                          static_cast<double>(take);
            auto idx = static_cast<std::size_t>(
                frac * static_cast<double>(n));
            picks.push_back(std::min(idx, n - 1));
        }
        return finish(std::move(picks));
    }
};

/** Uniform random sample without replacement; ignores phases. */
class RandomSelector : public Selector
{
  public:
    std::string name() const override { return "random"; }

    Selection
    select(const SelectorContext &ctx,
           std::size_t budget) const override
    {
        std::size_t n = ctx.profile.numIntervals();
        std::size_t take = std::min(budget, n);
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        Rng rng(ctx.seed ^ 0x7a6d0b5e3c2f1a09ULL);
        // Fisher-Yates; only the first `take` entries are needed.
        for (std::size_t i = 0; i < take; ++i) {
            std::size_t j =
                i + rng.nextBounded(
                        static_cast<std::uint32_t>(n - i));
            std::swap(order[i], order[j]);
        }
        order.resize(take);
        return finish(std::move(order));
    }
};

} // namespace

std::unique_ptr<Selector>
makeSelector(const std::string &name)
{
    if (name == "first")
        return std::make_unique<FirstPerPhaseSelector>();
    if (name == "centroid")
        return std::make_unique<CentroidSelector>();
    if (name == "stratified")
        return std::make_unique<StratifiedSelector>();
    if (name == "uniform")
        return std::make_unique<UniformSelector>();
    if (name == "random")
        return std::make_unique<RandomSelector>();
    std::string all;
    for (const std::string &s : selectorNames())
        all += (all.empty() ? "" : ", ") + s;
    tpcp_raise("unknown selector '", name, "' (expected one of: ",
               all, ")");
}

const std::vector<std::string> &
selectorNames()
{
    static const std::vector<std::string> names = {
        "first", "centroid", "stratified", "uniform", "random"};
    return names;
}

} // namespace tpcp::sample
