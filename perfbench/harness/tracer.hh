/**
 * @file
 * Span recording for the traced (--trace 1) runs. The benchmark
 * opens a span around each call it makes into a layer's public
 * functions; nothing inside the program is instrumented. Spans are
 * kept in memory and written as JSON lines when the run ends.
 *
 * A Tracer belongs to one thread and must be ended in LIFO order.
 * A disabled tracer records nothing, so untraced runs pay one branch
 * per call site.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::uint64_t id = 0;
    /** Enclosing span's id; 0 for a root span. */
    std::uint64_t parent = 0;
    /** Id of the root span this one belongs to: the unit of work
     * (one model, one sweep cell, one frame chunk) it served. */
    std::uint64_t run = 0;
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class Tracer
{
  public:
    /** @param id_base distinct per tracer so merged ids stay unique. */
    Tracer(bool enabled, std::uint64_t id_base)
        : enabled_(enabled), nextId(id_base + 1)
    {
    }

    bool enabled() const { return enabled_; }

    /** Opens a span; returns its id (0 when disabled). */
    std::uint64_t begin(const std::string &name);

    /** Closes the innermost open span, which must be @p id. */
    void end(std::uint64_t id);

    /** Records an already-timed span inside the innermost open one
     * (for calls whose span is kept only when they did work). */
    void add(const std::string &name, std::int64_t start_ns,
             std::int64_t end_ns);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::uint64_t nextId;
    std::vector<Span> spans_;
    /** Indices into spans_ of the open spans, innermost last. */
    std::vector<std::size_t> open_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const std::string &name)
        : tracer(t), id(t.begin(name))
    {
    }
    ~SpanScope() { tracer.end(id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer;
    std::uint64_t id;
};

/**
 * Self time of every span, in ns: its duration minus the part of
 * its interval that its direct children cover (overlapping children
 * are counted once). Parallel to @p spans.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Per-name totals, in seconds. */
struct NameTotals
{
    double selfS = 0.0;
    double totalS = 0.0;
    std::uint64_t count = 0;
};

std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans);

/** Writes one JSON object per span (with its self time) to @p path;
 * returns false on I/O error. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
