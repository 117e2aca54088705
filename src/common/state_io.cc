#include "common/state_io.hh"

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <ios>

namespace tpcp
{

namespace
{

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0]
 * is the classic bytewise table, and kCrcTables[s][b] is
 * kCrcTables[0][b] carried through s more zero bytes, so one step
 * folds eight input bytes with eight lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

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
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = c ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
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
