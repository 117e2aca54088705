#include "phase/signature_table.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/logging.hh"
#include "common/simd.hh"
#include "common/state_io.hh"

namespace tpcp::phase
{

namespace
{

/** Queries up to this padded width are padded on the stack; wider
 * rows (loadState admits up to 4096 bytes) pad into a heap copy. */
constexpr std::size_t kMaxQueryPad = 256;

static_assert(std::endian::native == std::endian::little,
              "the word-wise ECC maps row byte j to word bits 8j..8j+7");
static_assert(simd::kRowPad % 8 == 0,
              "the ECC's last row word must lie inside the padded row");

constexpr std::uint64_t kTopBit = std::uint64_t(1) << 63;

/** kEccPosMask[k] selects the word bits w < 63 whose 1-based
 * in-word position w + 1 has bit k set. */
constexpr std::array<std::uint64_t, 6> kEccPosMask = [] {
    std::array<std::uint64_t, 6> masks{};
    for (unsigned w = 0; w < 63; ++w)
        for (unsigned k = 0; k < 6; ++k)
            if ((w + 1) >> k & 1)
                masks[k] |= std::uint64_t(1) << w;
    return masks;
}();

/** The 8 row bytes at @p p as one little-endian word. The row's zero
 * padding completes a partial last word, adding nothing to either
 * check code. */
inline std::uint64_t
loadRowWord(const std::uint8_t *p)
{
    std::uint64_t x;
    std::memcpy(&x, p, sizeof(x));
    return x;
}

} // namespace

SignatureTable::SignatureTable(unsigned capacity,
                               unsigned min_ctr_bits,
                               bool track_parity)
    : cap(capacity), minCtrBits(min_ctr_bits),
      parityTracked(track_parity)
{
    if (cap) {
        metas.reserve(cap);
        weights.reserve(cap);
        thresholds.reserve(cap);
        parity.reserve(cap);
        eccPos.reserve(cap);
        quarantined.reserve(cap);
        lruPrev.reserve(cap);
        lruNext.reserve(cap);
    }
}

SignatureTable::MatchResult
SignatureTable::match(const Signature &sig, MatchPolicy policy) const
{
    return match(sig.data(), sig.size(), sig.weight(), policy);
}

SignatureTable::MatchResult
SignatureTable::match(const std::uint8_t *qdims, std::size_t ndims,
                      std::uint32_t qweight,
                      MatchPolicy policy) const
{
    tpcp_assert(metas.empty() || ndims == rowDims,
                "signature dimensionality mismatch");
    MatchResult best;
    const std::size_t n = metas.size();
    if (n == 0)
        return best;
    // Zero-pad the query to the row pitch: padding lanes contribute
    // |0 - 0| = 0 to every chunk.
    alignas(simd::kRowPad) std::uint8_t qbuf[kMaxQueryPad];
    std::vector<std::uint8_t> qheap;
    std::uint8_t *qpad = qbuf;
    if (rowStride_ > kMaxQueryPad) {
        qheap.resize(rowStride_);
        qpad = qheap.data();
    }
    std::memcpy(qpad, qdims, ndims);
    std::memset(qpad + ndims, 0, rowStride_ - ndims);
    // Hoisted so the fault-free scan pays one register test per row,
    // never a quarantine-array load.
    const bool anyQuarantined = numQuarantined_ != 0;
    const std::uint8_t *row = rows.data();
    for (std::size_t i = 0; i < n; ++i, row += rowStride_) {
        if (anyQuarantined && quarantined[i])
            continue; // parity-failed entry awaiting repair
        const std::uint32_t wi = weights[i];
        const std::uint64_t denom =
            static_cast<std::uint64_t>(qweight) + wi;
        double diff;
        if (qweight == 0 || wi == 0) {
            // An empty signature: two empty ones are identical by
            // definition, empty vs non-empty is fully disjoint.
            diff = denom == 0 ? 0.0 : 1.0;
        } else {
            // Prune with the entry's own threshold, independent of
            // scan state: a pruned row is one the exact tests below
            // would reject. Rows wider than one chunk stop early.
            const std::uint64_t bound =
                detail::distanceBoundUpper(thresholds[i], denom);
            std::uint64_t dist = simd::sad16(qpad, row);
            for (std::size_t c = simd::kRowPad;
                 c < rowStride_ && dist < bound; c += simd::kRowPad)
                dist += simd::sad16(qpad + c, row + c);
            if (dist >= bound)
                continue;
            // Signed conversions: the same doubles, fewer instructions.
            diff = static_cast<double>(static_cast<std::int64_t>(dist)) /
                   static_cast<double>(static_cast<std::int64_t>(denom));
        }
        if (diff >= thresholds[i])
            continue;
        if (policy == MatchPolicy::FirstMatch)
            return {static_cast<std::uint32_t>(i), diff};
        if (!best || diff < best.distance) {
            best.index = static_cast<std::uint32_t>(i);
            best.distance = diff;
        }
    }
    return best;
}

void
SignatureTable::lruDetach(std::uint32_t idx)
{
    const std::uint32_t p = lruPrev[idx];
    const std::uint32_t nx = lruNext[idx];
    if (p != npos)
        lruNext[p] = nx;
    else if (lruHead == idx)
        lruHead = nx;
    if (nx != npos)
        lruPrev[nx] = p;
    else if (lruTail == idx)
        lruTail = p;
    lruPrev[idx] = npos;
    lruNext[idx] = npos;
}

void
SignatureTable::lruAppend(std::uint32_t idx)
{
    lruPrev[idx] = lruTail;
    lruNext[idx] = npos;
    if (lruTail != npos)
        lruNext[lruTail] = idx;
    else
        lruHead = idx;
    lruTail = idx;
}

void
SignatureTable::bumpUse(std::uint32_t idx)
{
    metas[idx].lastUse = ++tick;
    lruDetach(idx);
    lruAppend(idx);
}

std::uint32_t
SignatureTable::allocSlot(std::size_t ndims)
{
    if (rowDims == 0) {
        rowDims = ndims;
        rowStride_ = simd::paddedSize(ndims);
    }
    tpcp_assert(ndims == rowDims,
                "signature dimensionality mismatch");
    if (cap != 0 && metas.size() >= cap) {
        // Evict and reuse the LRU slot: the head of the use-ordered
        // list, i.e. exactly the entry the previous O(n) min-lastUse
        // rescan picked (lastUse ticks are unique, so the minimum is
        // too). Quarantined entries get no special treatment here:
        // eviction decisions must stay in lockstep with a fault-free
        // run of the same stream, or the two tables' contents — and
        // with them all later phase-ID allocations — permanently
        // diverge.
        std::uint32_t victim = lruHead;
        if (quarantined[victim]) {
            quarantined[victim] = 0;
            --numQuarantined_;
        }
        ++evictions_;
        return victim;
    }
    metas.emplace_back();
    weights.push_back(0);
    thresholds.push_back(0.0);
    parity.push_back(0);
    eccPos.push_back(0);
    quarantined.push_back(0);
    lruPrev.push_back(npos);
    lruNext.push_back(npos);
    rows.resize(rows.size() + rowStride_);
    std::uint32_t idx = static_cast<std::uint32_t>(metas.size() - 1);
    lruAppend(idx);
    return idx;
}

std::uint32_t
SignatureTable::insert(const Signature &sig, double threshold)
{
    return insert(sig.data(), sig.size(), sig.weight(), threshold,
                  sig.bitsPerDim());
}

std::uint32_t
SignatureTable::insert(const std::uint8_t *dims, std::size_t ndims,
                       std::uint32_t weight, double threshold,
                       unsigned bits_per_dim)
{
    rowBits = bits_per_dim;
    std::uint32_t idx = allocSlot(ndims);
    std::copy(dims, dims + ndims, &rows[idx * rowStride_]);
    weights[idx] = weight;
    thresholds[idx] = threshold;
    SigEntryMeta &m = metas[idx];
    m = SigEntryMeta{};
    // The inserting interval is the entry's first sighting: it counts
    // toward the min-count threshold (paper section 4.4, "seen
    // min_count times").
    m.minCounter = SatCounter(minCtrBits, 1);
    bumpUse(idx);
    refreshParity(idx);
    return idx;
}

void
SignatureTable::replaceSignature(std::uint32_t idx,
                                 const std::uint8_t *dims,
                                 std::size_t ndims,
                                 std::uint32_t weight)
{
    tpcp_assert(idx < metas.size() && ndims == rowDims);
    std::copy(dims, dims + ndims, &rows[idx * rowStride_]);
    weights[idx] = weight;
    refreshParity(idx);
}

void
SignatureTable::touch(std::uint32_t idx)
{
    bumpUse(idx);
}

Signature
SignatureTable::signatureAt(std::uint32_t idx) const
{
    tpcp_assert(idx < metas.size());
    const std::uint8_t *row = &rows[idx * rowStride_];
    return Signature(std::vector<std::uint8_t>(row, row + rowDims),
                     rowBits);
}

void
SignatureTable::clear()
{
    rows.clear();
    weights.clear();
    thresholds.clear();
    metas.clear();
    parity.clear();
    eccPos.clear();
    quarantined.clear();
    lruPrev.clear();
    lruNext.clear();
    lruHead = npos;
    lruTail = npos;
    numQuarantined_ = 0;
    unverified = false;
    corrections_ = 0;
    rowDims = 0;
    rowStride_ = 0;
    tick = 0;
    evictions_ = 0;
}

std::uint8_t
SignatureTable::computeParity(std::uint32_t idx) const
{
    const std::uint8_t *row = &rows[idx * rowStride_];
    std::uint64_t x = 0;
    for (std::size_t j = 0; j < rowDims; j += 8)
        x ^= loadRowWord(row + j);
    x ^= x >> 32;
    x ^= x >> 16;
    x ^= x >> 8;
    return static_cast<std::uint8_t>(x);
}

std::uint16_t
SignatureTable::computeEccPos(std::uint32_t idx) const
{
    // Bit w of word m is row bit 64m + w, at 1-based position
    // 64m + w + 1. For w < 63 that is (m << 6) | (w + 1); for w = 63
    // it is (m + 1) << 6. The (m << 6) terms fold per word by parity;
    // the (w + 1) terms are linear in the bits, so they fold over the
    // XOR of all words' low 63 bits at the end.
    const std::uint8_t *row = &rows[idx * rowStride_];
    std::uint64_t low = 0;
    std::size_t high = 0;
    for (std::size_t j = 0, m = 0; j < rowDims; j += 8, ++m) {
        const std::uint64_t x = loadRowWord(row + j);
        const std::uint64_t xl = x & ~kTopBit;
        low ^= xl;
        if (__builtin_parityll(xl))
            high ^= m;
        if (x & kTopBit)
            high ^= m + 1;
    }
    std::size_t s = high << 6;
    for (unsigned k = 0; k < 6; ++k)
        s |= static_cast<std::size_t>(
                 __builtin_parityll(low & kEccPosMask[k]))
             << k;
    return static_cast<std::uint16_t>(s);
}

void
SignatureTable::refreshParity(std::uint32_t idx)
{
    if (!parityTracked)
        return; // soft-error machinery disabled: rows carry no ECC
    parity[idx] = computeParity(idx);
    eccPos[idx] = computeEccPos(idx);
    if (quarantined[idx]) {
        quarantined[idx] = 0;
        --numQuarantined_;
    }
}

void
SignatureTable::flipSignatureBit(std::uint32_t idx, unsigned bit)
{
    tpcp_assert(idx < metas.size() && bit < rowDims * 8);
    rows[idx * rowStride_ + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    unverified = true;
}

bool
SignatureTable::checkParityAt(std::uint32_t idx)
{
    tpcp_assert(idx < metas.size());
    tpcp_assert(parityTracked,
                "parity check on a table without parity tracking");
    if (quarantined[idx])
        return false;
    if (!unverified)
        return true;
    const std::uint8_t sFold =
        static_cast<std::uint8_t>(parity[idx] ^ computeParity(idx));
    const std::uint16_t sPos =
        static_cast<std::uint16_t>(eccPos[idx] ^ computeEccPos(idx));
    if (sFold == 0 && sPos == 0)
        return true;
    // Single-bit correction: exactly one bit position flipped (one
    // fold bit set) and the position code names a bit inside the row
    // consistent with it. Both syndromes must verify clean after the
    // flip-back, or the damage was wider than one bit after all.
    if ((sFold & (sFold - 1)) == 0 && sFold != 0 && sPos >= 1 &&
        sPos <= rowDims * 8) {
        const unsigned pos = sPos - 1;
        std::uint8_t &byte = rows[idx * rowStride_ + pos / 8];
        if ((std::uint8_t(1) << (pos % 8)) == sFold) {
            byte = static_cast<std::uint8_t>(byte ^ (1u << (pos % 8)));
            if (computeParity(idx) == parity[idx] &&
                computeEccPos(idx) == eccPos[idx]) {
                ++corrections_;
                return true;
            }
            byte = static_cast<std::uint8_t>(byte ^ (1u << (pos % 8)));
        }
    }
    quarantined[idx] = 1;
    ++numQuarantined_;
    return false;
}

std::uint32_t
SignatureTable::scrubParity()
{
    // Without parity tracking the loop runs, so checkParityAt()'s
    // assertion still fires on the first non-quarantined row.
    if (!unverified && parityTracked)
        return 0;
    std::uint32_t newlyQuarantined = 0;
    for (std::uint32_t i = 0; i < metas.size(); ++i) {
        if (!quarantined[i] && !checkParityAt(i))
            ++newlyQuarantined;
    }
    // Only now: the checks above must run in full. Every row they
    // passed matches its check bits, and the rest are quarantined.
    unverified = false;
    return newlyQuarantined;
}

SignatureTable::MatchResult
SignatureTable::matchQuarantined(const std::uint8_t *qdims,
                                 std::size_t ndims,
                                 std::uint32_t qweight) const
{
    tpcp_assert(metas.empty() || ndims == rowDims,
                "signature dimensionality mismatch");
    MatchResult best;
    if (numQuarantined_ == 0)
        return best;
    // Quarantined entries are rare, so each row is scanned in full —
    // no early-exit bound needed on this cold path.
    for (std::size_t i = 0; i < metas.size(); ++i) {
        if (!quarantined[i])
            continue;
        const std::uint32_t wi = weights[i];
        const std::uint64_t denom =
            static_cast<std::uint64_t>(qweight) + wi;
        double diff;
        if (denom == 0) {
            diff = 0.0;
        } else if (qweight == 0 || wi == 0) {
            diff = 1.0;
        } else {
            const std::uint8_t *row = &rows[i * rowStride_];
            std::int64_t dist = 0;
            for (std::size_t j = 0; j < ndims; ++j) {
                int d = static_cast<int>(qdims[j]) -
                        static_cast<int>(row[j]);
                dist += d < 0 ? -d : d;
            }
            // Syndrome-corrected distance. The XOR-fold parity pins
            // down exactly which *bit positions* flipped (odd number
            // of times) somewhere in the row, just not in which byte.
            // For each syndrome bit, undo the flip in whichever byte
            // shrinks the Manhattan distance the most: when a single
            // event flipped that bit, the true byte is among the
            // candidates, so the corrected distance is a tight lower
            // bound on the entry's uncorrupted distance — sharp
            // enough to compare against the entry's own threshold,
            // exactly as a fault-free match would.
            const std::uint8_t syndrome =
                static_cast<std::uint8_t>(parity[i] ^
                                          computeParity(
                                              static_cast<std::uint32_t>(
                                                  i)));
            for (unsigned b = 0; b < 8; ++b) {
                if (!(syndrome & (1u << b)))
                    continue;
                std::int64_t bestDelta =
                    std::numeric_limits<std::int64_t>::max();
                for (std::size_t j = 0; j < ndims; ++j) {
                    int cur = static_cast<int>(qdims[j]) -
                              static_cast<int>(row[j]);
                    cur = cur < 0 ? -cur : cur;
                    int alt = static_cast<int>(qdims[j]) -
                              static_cast<int>(row[j] ^ (1u << b));
                    alt = alt < 0 ? -alt : alt;
                    if (alt - cur < bestDelta)
                        bestDelta = alt - cur;
                }
                dist += bestDelta;
            }
            if (dist < 0)
                dist = 0;
            diff = static_cast<double>(dist) /
                   static_cast<double>(denom);
        }
        if (diff >= thresholds[i])
            continue;
        if (!best || diff < best.distance) {
            best.index = static_cast<std::uint32_t>(i);
            best.distance = diff;
        }
    }
    return best;
}

void
SignatureTable::repairEntry(std::uint32_t idx, const std::uint8_t *dims,
                            std::size_t ndims, std::uint32_t weight)
{
    tpcp_assert(idx < metas.size() && ndims == rowDims);
    tpcp_assert(quarantined[idx], "repairing a non-quarantined entry");
    std::copy(dims, dims + ndims, &rows[idx * rowStride_]);
    weights[idx] = weight;
    refreshParity(idx);
    bumpUse(idx);
}

void
SignatureTable::saveState(StateWriter &w) const
{
    w.u32(cap);
    w.u32(minCtrBits);
    w.u64(rowDims);
    w.u32(rowBits);
    w.u64(metas.size());
    // Rows are stored without their in-memory padding, keeping the
    // snapshot byte stream identical to the unpadded layout.
    for (std::size_t i = 0; i < metas.size(); ++i)
        w.raw(&rows[i * rowStride_], rowDims);
    for (std::uint32_t wt : weights)
        w.u32(wt);
    for (double t : thresholds)
        w.f64(t);
    for (const SigEntryMeta &m : metas) {
        w.u32(m.phase);
        w.u64(m.minCounter.value());
        m.cpi.saveState(w);
        w.u64(m.lastUse);
    }
    w.raw(parity.data(), parity.size());
    for (std::uint16_t e : eccPos)
        w.u32(e);
    w.raw(quarantined.data(), quarantined.size());
    w.u32(numQuarantined_);
    w.u64(corrections_);
    w.u64(tick);
    w.u64(evictions_);
}

void
SignatureTable::loadState(StateReader &r)
{
    const std::uint32_t savedCap = r.u32();
    const std::uint32_t savedBits = r.u32();
    if (savedCap != cap || savedBits != minCtrBits)
        tpcp_raise("signature-table snapshot geometry mismatch: saved ",
                   savedCap, "x", savedBits, " bits, configured ", cap,
                   "x", minCtrBits, " bits");
    clear();
    // The check bits are restored as saved, not recomputed, so no
    // row is known to match them.
    unverified = true;
    rowDims = r.u64();
    rowBits = r.u32();
    if (rowDims > 4096)
        tpcp_raise("signature-table snapshot rows implausibly wide (",
                   rowDims, " bytes)");
    if (rowBits < 1 || rowBits > 8)
        tpcp_raise("signature-table snapshot stores ", rowBits,
                   " bits per dimension");
    // Per entry: the row, weight u32, threshold f64, phase u32,
    // min counter u64, CPI stats (u64 + 4 f64), lastUse u64, parity
    // u8, position code u32 and quarantine flag u8.
    const std::uint64_t n = r.count(rowDims + 78);
    if (cap != 0 && n > cap)
        tpcp_raise("signature-table snapshot holds ", n,
                   " entries, capacity is ", cap);
    rowStride_ = rowDims == 0 ? 0 : simd::paddedSize(rowDims);
    rows.assign(n * rowStride_, 0);
    for (std::size_t i = 0; i < n; ++i)
        r.raw(&rows[i * rowStride_], rowDims);
    weights.resize(n);
    for (std::uint32_t &wt : weights)
        wt = r.u32();
    thresholds.resize(n);
    for (double &t : thresholds) {
        t = r.f64();
        // Saturating clamp: a normalized-difference threshold is
        // meaningful only in [0, 1], and NaN would poison matching.
        if (!(t >= 0.0))
            t = 0.0;
        else if (t > 1.0)
            t = 1.0;
    }
    metas.resize(n);
    for (SigEntryMeta &m : metas) {
        m.phase = r.u32();
        m.minCounter = SatCounter(minCtrBits, 0);
        m.minCounter.set(r.u64()); // clamps to the counter width
        m.cpi.loadState(r);
        m.lastUse = r.u64();
    }
    parity.resize(n);
    r.raw(parity.data(), parity.size());
    eccPos.resize(n);
    for (std::uint16_t &e : eccPos)
        e = static_cast<std::uint16_t>(r.u32());
    quarantined.resize(n);
    r.raw(quarantined.data(), quarantined.size());
    r.u32(); // saved quarantine count; recomputed below from the flags
    numQuarantined_ = 0;
    for (std::uint8_t q : quarantined)
        numQuarantined_ += q ? 1 : 0;
    corrections_ = r.u64();
    tick = r.u64();
    evictions_ = r.u64();
    // Rebuild the LRU list in lastUse order. Ticks are unique in any
    // snapshot this code wrote; the stable sort reproduces the old
    // min-rescan's tie-break (lowest index first) regardless.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return metas[a].lastUse < metas[b].lastUse;
                     });
    lruPrev.assign(n, npos);
    lruNext.assign(n, npos);
    lruHead = npos;
    lruTail = npos;
    for (std::uint32_t idx : order)
        lruAppend(idx);
}

} // namespace tpcp::phase
