#include "common/state_io.hh"

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <ios>

#if defined(__x86_64__) && !defined(TPCP_SIMD_DISABLED)
#include <immintrin.h>
#define TPCP_CRC_CLMUL 1
#endif

namespace tpcp
{

namespace
{

/**
 * Slicing-by-16 tables for the reflected IEEE polynomial:
 * kCrcTables[0] is the classic bytewise table, and kCrcTables[s][b]
 * is kCrcTables[0][b] carried through s more zero bytes, so one step
 * folds sixteen input bytes with sixteen independent lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t s = 1; s < t.size(); ++s)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[s][i] = t[0][t[s - 1][i] & 0xffu] ^ (t[s - 1][i] >> 8);
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** Little-endian 32-bit load; compiles to one load on LE hosts. */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

#if defined(TPCP_CRC_CLMUL)

/** One 16-byte fold step: carries @p acc 128 bits (or 512, by the
 * constants in @p k) forward with carry-less multiplies and adds
 * @p next. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
clmulFold(__m128i acc, __m128i next, __m128i k)
{
    const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

inline __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/**
 * Advances the CRC register @p c over @p len bytes (len >= 64, a
 * multiple of 16) by folding with PCLMULQDQ: four 128-bit lanes
 * fold 64 bytes per step, the lanes fold into one, and a Barrett
 * reduction brings the 128-bit remainder to 32 bits ("Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ Instruction",
 * Intel, 2009; the constants are the reflected IEEE polynomial's).
 * Same values as the table loop; about six times its speed.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
crcClmul(const std::uint8_t *p, std::size_t len, std::uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = clmulFold(x1, load128(p), k1k2);
        x2 = clmulFold(x2, load128(p + 16), k1k2);
        x3 = clmulFold(x3, load128(p + 32), k1k2);
        x4 = clmulFold(x4, load128(p + 48), k1k2);
    }
    x1 = clmulFold(x1, x2, k3k4);
    x1 = clmulFold(x1, x3, k3k4);
    x1 = clmulFold(x1, x4, k3k4);
    for (; len >= 16; p += 16, len -= 16)
        x1 = clmulFold(x1, load128(p), k3k4);

    // 128 bits to 64, then Barrett reduction to 32.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

/** True when the CPU has PCLMULQDQ and SSE4.1 (x86-64 only
 * guarantees SSE2). */
bool
hasClmul()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return has;
}

#endif // TPCP_CRC_CLMUL

/** Envelope header: magic, version, payload length, payload CRC. */
constexpr std::size_t kEnvelopeHeaderBytes = 4 + 4 + 8 + 4;

} // namespace

void
StateWriter::raw(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf.insert(buf.end(), p, p + size);
}

void
StateReader::truncated(std::size_t size) const
{
    tpcp_raise(label_, ": truncated (need ", size, " bytes, have ",
               remaining(), ")");
}

std::string
StateReader::readString(std::uint64_t len, std::size_t max_len)
{
    if (len > max_len || len > remaining())
        tpcp_raise(label_, ": string length ", len, " exceeds ",
                   len > max_len ? "the format limit" :
                                   "the remaining payload");
    std::string s(len, '\0');
    raw(s.data(), len);
    return s;
}

void
StateReader::header(std::uint32_t magic, std::uint32_t version)
{
    const std::uint32_t got_magic = u32();
    if (got_magic != magic)
        tpcp_raise(label_, ": bad magic 0x", std::hex, got_magic,
                   " (expected 0x", magic, ")");
    const std::uint32_t got_version = u32();
    if (got_version != version)
        tpcp_raise(label_, ": version ", got_version,
                   " unsupported (expected ", version, ")");
}

std::uint64_t
StateReader::checkCount(std::uint64_t n,
                        std::size_t bytes_per_item) const
{
    if (n > remaining() / bytes_per_item)
        tpcp_raise(label_, ": count ", n, " impossible for the ",
                   remaining(), " bytes that remain (", bytes_per_item,
                   " bytes per item)");
    return n;
}

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
#if defined(TPCP_CRC_CLMUL)
    if (size >= 64 && hasClmul()) {
        const std::size_t blocks = size & ~std::size_t{15};
        c = crcClmul(p, blocks, c);
        p += blocks;
        size -= blocks;
    }
#endif
    for (; size >= 16; p += 16, size -= 16) {
        const std::uint32_t w0 = c ^ loadLe32(p);
        const std::uint32_t w1 = loadLe32(p + 4);
        const std::uint32_t w2 = loadLe32(p + 8);
        const std::uint32_t w3 = loadLe32(p + 12);
        c = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
            t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
            t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
            t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
            t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
            t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
            t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
            t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
    }
    for (; size > 0; ++p, --size)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        tpcp_raise("cannot open '", path, "' for reading");
    // The size is only a capacity hint: the read loop decides the
    // length, so a file that changes underneath is never misread.
    std::vector<std::uint8_t> bytes;
    std::error_code ec;
    const std::uintmax_t hint = std::filesystem::file_size(path, ec);
    if (!ec)
        bytes.reserve(hint);
    std::uint8_t chunk[16384];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + got);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed)
        tpcp_raise("I/O error reading '", path, "'");
    return bytes;
}

bool
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    // The counter keeps temp names distinct when several threads
    // write into one directory.
    static std::atomic<std::uint64_t> tempCounter{0};
    const std::string tmp =
        path + ".tmp" +
        std::to_string(
            tempCounter.fetch_add(1, std::memory_order_relaxed));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok = bytes.empty() ||
              std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok && std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::remove(tmp.c_str());
    return false;
}

std::vector<std::uint8_t>
sealStateFile(std::uint32_t magic, std::uint32_t version,
              const StateWriter &payload)
{
    StateWriter file;
    file.reserve(kEnvelopeHeaderBytes + payload.size());
    file.u32(magic);
    file.u32(version);
    file.u64(payload.size());
    file.u32(crc32(payload.buffer().data(), payload.size()));
    file.raw(payload.buffer().data(), payload.size());
    return file.take();
}

bool
writeStateFile(const std::string &path, std::uint32_t magic,
               std::uint32_t version, const StateWriter &payload)
{
    return writeFileAtomic(path, sealStateFile(magic, version, payload));
}

std::vector<std::uint8_t>
parseStateFile(const std::vector<std::uint8_t> &bytes,
               std::uint32_t magic, std::uint32_t version,
               const std::string &what)
{
    const std::string label = "state file '" + what + "'";
    StateReader r(bytes, label);
    r.header(magic, version);
    const std::uint64_t payload_size = r.u64();
    const std::uint32_t want_crc = r.u32();
    if (payload_size != r.remaining())
        tpcp_raise(label, ": payload length mismatch: header says ",
                   payload_size, ", file carries ", r.remaining());
    const std::uint32_t got_crc = r.crc();
    if (got_crc != want_crc)
        tpcp_raise(label, ": failed checksum: computed ", got_crc,
                   ", stored ", want_crc);
    return {bytes.begin() + kEnvelopeHeaderBytes, bytes.end()};
}

std::vector<std::uint8_t>
readStateFile(const std::string &path, std::uint32_t magic,
              std::uint32_t version)
{
    return parseStateFile(readFile(path), magic, version, path);
}

} // namespace tpcp
