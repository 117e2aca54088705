/**
 * @file
 * Measurement helpers shared by every perfbench workload: clocks,
 * order statistics, the seeded input generator (splitmix64), an
 * FNV-1a digest for correctness gates, and the metric set each run
 * prints as its final JSON line.
 *
 * The generators live here, not in the program under test, so a
 * change to the program's own RNG never changes the benchmark's
 * inputs.
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

/**
 * The measuring clock: CPU time of the calling thread, nanoseconds
 * (CLOCK_THREAD_CPUTIME_ID). A shared VM's host takes a vCPU away for
 * milliseconds at a time, and with paravirtual steal accounting (the
 * KVM guest default) the kernel leaves that stolen time, like the time
 * other threads ran, out of a thread's CPU time. Every duration the
 * benchmark reports, open-loop latency included, is on this clock: it
 * advances only while the measuring thread runs, so a host stall
 * pauses the serve schedule together with the service instead of
 * charging the stall to the program.
 */
inline std::int64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/** Monotonic wall-clock nanoseconds, for run-length deadlines only. */
inline std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Busy-wait hint for spin loops. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * A shared VM's host runs each vCPU at its own, drifting speed (up to
 * 1.5x apart for seconds at a time), so a measurement that stays on
 * one CPU inherits that CPU's luck. Workloads rotate their repeated
 * units over the CPUs the process started with and report medians,
 * and a reference sample runs on the CPU of the unit it scales.
 * cpuSlots() is the number of those CPUs (call it once before any
 * pinning); pinToSlot(k) pins the calling thread to CPU k mod slots;
 * unpin() restores the starting set.
 */
unsigned cpuSlots();
void pinToSlot(unsigned k);
void unpin();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Nearest-rank percentile of @p sorted (ascending, non-empty):
 * the smallest sample with at least p% of the samples at or below
 * it.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Median of an unsorted sample (nearest-rank p50). */
double median(std::vector<double> values);

/** Samples strictly above the nearest-rank p-th percentile's rank. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of the percentiles 50, 90, 99, 99.9, 99.99 and 99.999
 * that has at least @p min_beyond samples beyond it in a sample of
 * @p n; 0 when not even the median qualifies.
 */
double highestSupportedPercentile(std::size_t n,
                                  std::size_t min_beyond = 10);

/**
 * The host-speed reference. A shared VM's host runs the benchmark at
 * a speed that drifts by up to 2x between runs and from second to
 * second (other tenants' load on the same cores), and no statistic
 * within a run can remove drift between runs. So every timed unit is
 * paired with a fixed piece of reference work timed on the same CPU at
 * the same time, and reported at the reference host's speed: its time
 * divided by the host's slowdown, the reference work's time over its
 * time on the reference host (a quiet vCPU of the measuring VM). The
 * reference work is the benchmark's own code, so no change to the
 * program under test moves it. Code slows down unevenly (a busy
 * neighbour on the same core cost serve's copy-heavy loop more than a
 * latency-bound one), so each workload uses the shape closest to its
 * own inner loop.
 */
enum class RefShape
{
    /** Dependent loads over a 256 KiB table, multiplies and
     * data-dependent branches: the simulator and the replay sweep. */
    Chase,
    /** 176-byte records copied from a 1 MiB pool into a 64 KiB ring and
     * folded into 32 counters: the serve path's copy, decode and
     * accumulate. */
    Stream,
};

/** Runs the reference work of @p shape once on the calling thread
 * (after an untimed pass that brings its data into cache); its time
 * over the quiet-host time, so about 1 on a quiet host. */
double hostSlowdown(RefShape shape);

/** Seconds the reference host takes for work that took @p raw_s here
 * while the host ran @p slowdown times slower. */
inline double
atReference(double raw_s, double slowdown)
{
    return raw_s / slowdown;
}

/**
 * Samples the reference work from a thread of its own, pinned to the
 * caller's CPU slot, every few milliseconds, while the caller runs a
 * long call there (one that cannot be split to take samples inline).
 * The caller's own CPU time leaves the probe's out. stop() ends and
 * joins the thread; then slowdown() is the median sample (Chase).
 */
class SpeedProbe
{
  public:
    explicit SpeedProbe(unsigned slot);
    ~SpeedProbe() { stop(); }
    SpeedProbe(const SpeedProbe &) = delete;
    SpeedProbe &operator=(const SpeedProbe &) = delete;

    void stop();
    double slowdown() const { return median(samples); }
    std::size_t count() const { return samples.size(); }

  private:
    std::mutex lock;
    std::condition_variable wake;
    bool done = false;
    std::vector<double> samples;
    std::thread thread;
};

/**
 * A workload's set-up time, seconds per set-up at the reference host's
 * speed. Set-up steps take milliseconds and a vCPU's speed drifts (one
 * encode took 7-13 ms on the four CPUs at the same moment), so each
 * sample is the mean of a batch of back-to-back calls on one CPU,
 * bracketed by reference work; samples are taken on every CPU at the
 * start and again between a run's measured segments, and seconds() is
 * their median.
 */
class SetupTimer
{
  public:
    SetupTimer(int batch, RefShape shape) : batch(batch), shape(shape) {}

    /** One sample on the calling thread's current CPUs. @p fn gets the
     * call's index over all samples. */
    template <class F>
    void
    sample(F &&fn)
    {
        const double slow0 = hostSlowdown(shape);
        const std::int64_t t0 = nowNs();
        for (int b = 0; b < batch; ++b)
            fn(calls++);
        const double raw = secondsSince(t0) / batch;
        samples.push_back(
            atReference(raw, 0.5 * (slow0 + hostSlowdown(shape))));
    }

    /** One sample pinned to each CPU in turn; unpins afterwards. */
    template <class F>
    void
    sampleEveryCpu(F &&fn)
    {
        for (unsigned k = 0; k < std::max(1u, cpuSlots()); ++k) {
            pinToSlot(k);
            sample(fn);
        }
        unpin();
    }

    double seconds() const { return median(samples); }
    std::size_t count() const { return samples.size(); }

  private:
    int batch;
    RefShape shape;
    int calls = 0;
    std::vector<double> samples;
};

/** splitmix64: the seeded stream behind every generated input. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

  private:
    std::uint64_t state;
};

/** Incremental FNV-1a 64 over typed values (little-endian host). */
class Digest
{
  public:
    Digest &
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
        return *this;
    }

    Digest &u64(std::uint64_t v) { return bytes(&v, sizeof v); }

    /** Hashes the IEEE-754 bits, so equal means bit-identical. */
    Digest &
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }

    Digest &
    u32s(const std::vector<std::uint32_t> &v)
    {
        u64(v.size());
        return bytes(v.data(), v.size() * sizeof(std::uint32_t));
    }

    Digest &
    str(const std::string &s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable problems found by the correctness gates. */
    std::vector<std::string> errors;

    void
    add(const std::string &name, double value,
        const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Counts one checked operation; a false @p ok is a failure
     * described by @p what. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            errors.push_back(what);
        }
    }

    bool correct() const { return failed == 0; }
};

/** Shortest round-trip decimal form of @p v (JSON-safe). */
std::string formatNumber(double v);

/** The final line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
