#include "pred/last_value.hh"

#include <algorithm>
#include <vector>

#include "common/state_io.hh"

namespace tpcp::pred
{

LastValuePredictor::LastValuePredictor(const LastValueConfig &config)
    : cfg(config)
{
}

SatCounter &
LastValuePredictor::counterFor(PhaseId phase)
{
    auto it = conf.find(phase);
    if (it == conf.end()) {
        it = conf.emplace(phase, SatCounter(cfg.confBits, 0)).first;
    }
    return it->second;
}

bool
LastValuePredictor::confident() const
{
    if (!primed_)
        return false;
    auto it = conf.find(last);
    if (it == conf.end())
        return false;
    return it->second.value() >= cfg.confThreshold;
}

void
LastValuePredictor::observe(PhaseId actual)
{
    if (primed_) {
        SatCounter &c = counterFor(last);
        if (actual == last)
            c.increment();
        else
            c.decrement();
    }
    last = actual;
    primed_ = true;
    counterFor(actual); // ensure the counter exists (reset-on-add)
}

void
LastValuePredictor::resetConfidence(PhaseId phase)
{
    counterFor(phase).reset();
}

void
LastValuePredictor::saveState(StateWriter &w) const
{
    w.u32(last);
    w.b(primed_);
    // The unordered map is serialized in sorted key order so the
    // snapshot bytes are deterministic.
    std::vector<PhaseId> keys;
    keys.reserve(conf.size());
    for (const auto &[id, c] : conf)
        keys.push_back(id);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (PhaseId id : keys) {
        w.u32(id);
        w.u64(conf.at(id).value());
    }
}

void
LastValuePredictor::loadState(StateReader &r)
{
    last = r.u32();
    primed_ = r.b();
    const std::uint64_t n = r.count(4 + 8);
    conf.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        PhaseId id = r.u32();
        SatCounter c(cfg.confBits, 0);
        c.set(r.u64()); // clamps to the counter width
        conf.emplace(id, c);
    }
}

} // namespace tpcp::pred
