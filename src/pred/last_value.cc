#include "pred/last_value.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace tpcp::pred
{

LastValuePredictor::LastValuePredictor(const LastValueConfig &config)
    : cfg(config), cur(cfg.confBits, 0)
{
}

bool
LastValuePredictor::confident() const
{
    return primed_ && cur.value() >= cfg.confThreshold;
}

void
LastValuePredictor::observe(PhaseId actual)
{
    if (primed_) {
        if (actual == last) {
            cur.increment();
            return;
        }
        cur.decrement();
        conf.at(last) = cur;
    }
    last = actual;
    primed_ = true;
    cur = conf.try_emplace(actual, cfg.confBits, 0).first->second;
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
        w.u64(primed_ && id == last ? cur.value()
                                    : conf.at(id).value());
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
    cur = SatCounter(cfg.confBits, 0);
    if (primed_) {
        auto it = conf.find(last);
        if (it == conf.end())
            tpcp_raise("last-value snapshot: no confidence counter for "
                       "the last phase ", last);
        cur = it->second;
    }
}

} // namespace tpcp::pred
