#include "bench_util.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench
{

namespace
{

const cpu_set_t &
startCpus()
{
    static const cpu_set_t set = [] {
        cpu_set_t s;
        CPU_ZERO(&s);
        if (sched_getaffinity(0, sizeof s, &s) != 0)
            CPU_ZERO(&s);
        return s;
    }();
    return set;
}

} // namespace

unsigned
cpuSlots()
{
    return static_cast<unsigned>(CPU_COUNT(&startCpus()));
}

void
pinToSlot(unsigned k)
{
    const unsigned n = cpuSlots();
    if (n < 2)
        return;
    unsigned seen = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &startCpus()) || seen++ != k % n)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        return;
    }
}

void
unpin()
{
    if (cpuSlots() >= 2)
        pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                               &startCpus());
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

/** 1-based nearest rank of the p-th percentile in a sample of n. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps p = 99.9 of n = 10000 at rank 9990 despite
    // 99.9 / 100 * 10000 rounding to just above 9990.
    const double r =
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), p) - 1];
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, 50.0);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
highestSupportedPercentile(std::size_t n, std::size_t min_beyond)
{
    double best = 0.0;
    for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999})
        if (samplesBeyond(n, p) >= min_beyond)
            best = p;
    return best;
}

namespace
{

constexpr std::size_t kChaseWords = 1u << 16; // 256 KiB
constexpr std::size_t kChaseSteps = 1u << 17;
constexpr std::size_t kStreamPoolWords = 1u << 18; // 1 MiB
constexpr std::size_t kStreamRingWords = 1u << 14; // 64 KiB
constexpr std::size_t kStreamRecordWords = 44;     // 176 bytes
constexpr std::size_t kStreamRecords = 1u << 14;
/** Seconds of each shape's reference work on the reference host. The
 * chase time is its median on a quiet vCPU of the measuring VM (Intel
 * Xeon, 2.1 GHz); the stream time is estimated for that vCPU from the
 * ratio of the two shapes and of serve-steady's slowdown in a slow
 * host state. */
constexpr double kChaseQuietS = 7.6e-4;
constexpr double kStreamQuietS = 5.5e-4;
/** Reference samples a SpeedProbe takes per second of the caller's
 * call: one every 20 ms, about 4% of the CPU. */
constexpr auto kProbePeriod = std::chrono::milliseconds(20);

std::vector<std::uint32_t>
randomWords(std::size_t n)
{
    SplitMix64 g(0x5eedf00dULL);
    std::vector<std::uint32_t> words(n);
    for (std::uint32_t &w : words)
        w = static_cast<std::uint32_t>(g.next());
    return words;
}

/** Sums every cache line of @p words: the untimed pass that brings
 * the reference data into cache. */
std::uint64_t
touch(const std::vector<std::uint32_t> &words)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words.size(); i += 16)
        acc += words[i];
    return acc;
}

double
chaseSeconds()
{
    static const std::vector<std::uint32_t> table = randomWords(kChaseWords);
    std::uint64_t acc = touch(table);
    const std::int64_t t0 = nowNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint32_t idx = 0;
    std::uint64_t counts[64] = {};
    for (std::size_t s = 0; s < kChaseSteps; ++s) {
        idx = (table[idx] ^ static_cast<std::uint32_t>(x >> 32)) &
              (kChaseWords - 1);
        x = x * 0xd1342543de82ef95ULL + idx;
        if (x >> 63)
            acc += idx;
        else
            ++counts[x & 63];
    }
    for (std::uint64_t c : counts)
        acc += c;
    const double secs = secondsSince(t0);
    asm volatile("" : : "r"(acc) : "memory");
    return secs;
}

double
streamSeconds()
{
    static const std::vector<std::uint32_t> pool =
        randomWords(kStreamPoolWords);
    thread_local std::vector<std::uint32_t> ring(kStreamRingWords);
    constexpr std::size_t records = kStreamPoolWords / kStreamRecordWords;
    std::uint64_t acc = touch(pool);
    const std::int64_t t0 = nowNs();
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint32_t counters[32] = {};
    std::size_t slot = 0;
    for (std::size_t r = 0; r < kStreamRecords; ++r) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t *rec = &ring[slot];
        std::memcpy(rec, &pool[(x % records) * kStreamRecordWords],
                    kStreamRecordWords * sizeof(std::uint32_t));
        slot = (slot + kStreamRecordWords) %
               (kStreamRingWords - kStreamRecordWords);
        for (std::size_t k = 0; k < 32; ++k)
            counters[(rec[k] >> 7) & 31] += rec[k];
        if (counters[x & 31] & 1)
            acc += counters[(x >> 5) & 31];
    }
    for (std::uint32_t c : counters)
        acc += c;
    const double secs = secondsSince(t0);
    asm volatile("" : : "r"(acc) : "memory");
    return secs;
}

} // namespace

double
hostSlowdown(RefShape shape)
{
    return shape == RefShape::Chase ? chaseSeconds() / kChaseQuietS
                                    : streamSeconds() / kStreamQuietS;
}

SpeedProbe::SpeedProbe(unsigned slot)
{
    thread = std::thread([this, slot] {
        pinToSlot(slot);
        std::unique_lock<std::mutex> hold(lock);
        while (!wake.wait_for(hold, kProbePeriod, [this] { return done; })) {
            hold.unlock();
            const double slow = hostSlowdown(RefShape::Chase);
            hold.lock();
            samples.push_back(slow);
        }
    });
}

void
SpeedProbe::stop()
{
    if (!thread.joinable())
        return;
    {
        std::lock_guard<std::mutex> hold(lock);
        done = true;
    }
    wake.notify_all();
    thread.join();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
resultJson(const RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        if (i != 0)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " +
               formatNumber(m.value) + ", \"unit\": \"" + m.unit +
               "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
