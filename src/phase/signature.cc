#include "phase/signature.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace tpcp::phase
{

Signature::Signature(std::vector<std::uint8_t> dims_in,
                     unsigned bits_per_dim)
    : dims(std::move(dims_in)), bits(bits_per_dim)
{
    tpcp_assert(bits_per_dim >= 1 && bits_per_dim <= 8);
    std::uint8_t max_dim =
        static_cast<std::uint8_t>(maskLow(bits_per_dim));
    for (std::uint8_t d : dims) {
        tpcp_assert(d <= max_dim, "dimension exceeds bit width");
        weight_ += d;
    }
}

Signature
Signature::fromAccumulators(const std::vector<std::uint32_t> &raw,
                            InstCount total, unsigned bits_per_dim,
                            BitSelection mode, unsigned static_shift)
{
    std::vector<std::uint8_t> dims(raw.size());
    compressTo(raw, total, bits_per_dim, mode, static_shift,
               dims.data());
    return Signature(std::move(dims), bits_per_dim);
}

std::uint32_t
Signature::compressTo(const std::vector<std::uint32_t> &raw,
                      InstCount total, unsigned bits_per_dim,
                      BitSelection mode, unsigned static_shift,
                      std::uint8_t *out)
{
    return compressTo(raw.data(), raw.size(), total, bits_per_dim,
                      mode, static_shift, out);
}

std::uint32_t
Signature::compressTo(const std::uint32_t *raw, std::size_t n,
                      InstCount total, unsigned bits_per_dim,
                      BitSelection mode, unsigned static_shift,
                      std::uint8_t *out)
{
    tpcp_assert(n != 0);
    tpcp_assert(bits_per_dim >= 1 && bits_per_dim <= 8);

    unsigned shift = static_shift;
    unsigned window_top; // one past the MSB of the selected window
    if (mode == BitSelection::Dynamic) {
        // Average counter value; the division is exact power-of-two
        // shifting in hardware when the counter count is one.
        std::uint64_t avg = total / n;
        // Keep two bits above the bits needed for the average, so the
        // window represents values up to 4x the average.
        window_top = bitsFor(avg) + 2;
        shift = window_top > bits_per_dim ? window_top - bits_per_dim
                                          : 0;
    } else {
        window_top = static_shift + bits_per_dim;
    }
    std::uint8_t max_dim =
        static_cast<std::uint8_t>(maskLow(bits_per_dim));
    // The counters are 32-bit: a shift of 32 or more selects nothing,
    // and a window topping out at or above bit 32 can never saturate
    // (the kernel drops its saturation test for window_top >= 32).
    // Handling the all-zero case here keeps the kernel contract at
    // shift < 32, where the vector shift widths are well defined.
    if (shift >= 32) {
        std::memset(out, 0, n);
        return 0;
    }
    // Saturate ("we set all of the selected bits to one" when any bit
    // above the window is set), shift and mask in the build's vector
    // kernel, which stores the same bytes as the scalar loop.
    return simd::compressU32(raw, n, shift, window_top, max_dim, out);
}

std::uint32_t
Signature::manhattan(const Signature &other) const
{
    tpcp_assert(dims.size() == other.dims.size(),
                "signature dimensionality mismatch");
    std::uint32_t dist = 0;
    for (std::size_t i = 0; i < dims.size(); ++i) {
        int d = static_cast<int>(dims[i]) -
                static_cast<int>(other.dims[i]);
        dist += static_cast<std::uint32_t>(d < 0 ? -d : d);
    }
    return dist;
}

double
Signature::difference(const Signature &other) const
{
    std::uint32_t dist = manhattan(other);
    std::uint64_t denom = static_cast<std::uint64_t>(weight_) +
                          other.weight_;
    // An interval with no committed branches yields an all-zero
    // signature with weight 0; define the degenerate cases instead
    // of letting 0/0 produce a NaN that would poison every
    // threshold comparison downstream. Two empty signatures are
    // identical; empty vs non-empty has fully disjoint support.
    if (denom == 0)
        return 0.0;
    if (weight_ == 0 || other.weight_ == 0)
        return 1.0;
    return static_cast<double>(dist) / static_cast<double>(denom);
}

std::string
Signature::toString() const
{
    std::ostringstream oss;
    oss << "[";
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i)
            oss << " ";
        oss << static_cast<int>(dims[i]);
    }
    oss << "]";
    return oss.str();
}

bool
Signature::operator==(const Signature &other) const
{
    return dims == other.dims && bits == other.bits;
}

} // namespace tpcp::phase
