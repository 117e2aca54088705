#include "common/rng.hh"

#include <cmath>

#include "common/bitops.hh"
#include "common/state_io.hh"

namespace tpcp
{

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state(0), inc((stream << 1) | 1)
{
    // Standard PCG32 seeding sequence.
    next32();
    state += seed;
    next32();
}

Rng::Rng(std::string_view name)
    // FNV-1a over the name, then mixed, gives a stable seed.
    : Rng(mix64(fnv1a64(name)))
{
}

std::uint32_t
Rng::next32()
{
    std::uint64_t old = state;
    state = old * 6364136223846793005ULL + inc;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
}

std::uint64_t
Rng::next64()
{
    return (static_cast<std::uint64_t>(next32()) << 32) | next32();
}

std::uint32_t
Rng::nextBounded(std::uint32_t bound)
{
    tpcp_assert(bound > 0);
    // Lemire-style rejection keeps the distribution exactly uniform.
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
        std::uint32_t r = next32();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    tpcp_assert(lo <= hi);
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next64());
    std::uint64_t r;
    if (span <= 0xffffffffULL) {
        r = nextBounded(static_cast<std::uint32_t>(span));
    } else {
        // 64-bit rejection sampling.
        std::uint64_t limit = ~std::uint64_t(0) - (~std::uint64_t(0) % span);
        do {
            r = next64();
        } while (r >= limit);
        r %= span;
    }
    return lo + static_cast<std::int64_t>(r);
}

double
Rng::nextDouble()
{
    // 53 random bits into [0, 1).
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

double
Rng::nextGaussian()
{
    double sum = 0.0;
    for (int i = 0; i < 12; ++i)
        sum += nextDouble();
    return sum - 6.0;
}

std::uint32_t
Rng::nextGeometric(double p)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return ~std::uint32_t(0);
    double u = nextDouble();
    double v = std::log1p(-u) / std::log1p(-p);
    if (v >= 4.0e9)
        return ~std::uint32_t(0);
    return static_cast<std::uint32_t>(v);
}

std::size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        tpcp_assert(w >= 0.0, "negative weight");
        total += w;
    }
    tpcp_assert(total > 0.0, "weights sum to zero");
    double target = nextDouble() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (target < acc)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork(std::uint64_t salt)
{
    return Rng(mix64(state ^ salt), mix64(inc + salt));
}

void
Rng::saveState(StateWriter &w) const
{
    w.u64(state);
    w.u64(inc);
}

void
Rng::loadState(StateReader &r)
{
    state = r.u64();
    std::uint64_t in = r.u64();
    // inc must be odd for PCG32 to have full period; a snapshot written
    // by saveState() always satisfies this, so treat violation as
    // corruption the envelope checksum somehow missed.
    if ((in & 1) == 0)
        tpcp_raise("rng state snapshot: even increment ", in);
    inc = in;
}

} // namespace tpcp
