#include "tracer.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "bench_util.hh"

namespace perfbench
{

std::uint64_t
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return 0;
    Span s;
    s.id = nextId++;
    if (!open_.empty()) {
        const Span &outer = spans_[open_.back()];
        s.parent = outer.id;
        s.run = outer.run;
    } else {
        s.run = s.id;
    }
    s.name = name;
    open_.push_back(spans_.size());
    spans_.push_back(std::move(s));
    // Read the clock last so span bookkeeping stays outside the span.
    spans_.back().startNs = nowNs();
    return spans_.back().id;
}

void
Tracer::end(std::uint64_t id)
{
    if (!enabled_)
        return;
    const std::int64_t t = nowNs();
    if (open_.empty() || spans_[open_.back()].id != id)
        throw std::logic_error("span closed out of order");
    spans_[open_.back()].endNs = t;
    open_.pop_back();
}

void
Tracer::add(const std::string &name, std::int64_t start_ns,
            std::int64_t end_ns)
{
    if (!enabled_)
        return;
    Span s;
    s.id = nextId++;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.run = open_.empty() ? s.id : spans_[open_.back()].run;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = end_ns;
    spans_.push_back(std::move(s));
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto it = index.find(spans[i].parent);
        if (spans[i].parent != 0 && it != index.end())
            children[it->second].push_back(i);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (std::size_t c : children[i]) {
            const std::int64_t lo = std::max(spans[c].startNs, s.startNs);
            const std::int64_t hi = std::min(spans[c].endNs, s.endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0, reach = s.startNs;
        for (const auto &[lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        NameTotals &t = out[spans[i].name];
        t.selfS += static_cast<double>(self[i]) * 1e-9;
        t.totalS +=
            static_cast<double>(spans[i].endNs - spans[i].startNs) *
            1e-9;
        ++t.count;
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans.size() && out; ++i) {
        const Span &s = spans[i];
        out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"run\": " << s.run << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"self_ns\": " << self[i] << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
