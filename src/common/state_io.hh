/**
 * @file
 * The repository's one byte codec. Every binary format — TPKT
 * frames, `.tpcptrace` files (which are also the profile cache's
 * files), checkpoint envelopes and TMIG migration manifests — is
 * written with
 * StateWriter and read with StateReader, and every file goes through
 * readFile()/writeFileAtomic().
 *
 * StateWriter/StateReader move little-endian scalars, strings and
 * byte blocks through a flat byte buffer; every hardware structure
 * that can be checkpointed (accumulator table, signature table,
 * predictors, the full phase tracker) implements
 * saveState()/loadState() against this pair. The reader treats its
 * bytes as untrusted: running past the end, an over-long string, a
 * count larger than the remaining payload can hold, or a wrong
 * magic/version raises tpcp::Error naming the input — a truncated or
 * corrupted image surfaces as a recoverable error, never as UB or an
 * allocation sized by a forged field.
 *
 * sealStateFile()/parseStateFile() wrap a payload in a versioned,
 * CRC-32-checksummed envelope (magic, version, payload length, CRC,
 * payload) held in memory; writeStateFile()/readStateFile() do the
 * same through a file. Every byte of the image is covered:
 * magic/version/length mismatches and trailing bytes are detected
 * structurally, and any payload corruption fails the checksum —
 * flipping a single bit anywhere in a state file makes the load fail
 * cleanly.
 */

#ifndef TPCP_COMMON_STATE_IO_HH
#define TPCP_COMMON_STATE_IO_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"

namespace tpcp
{

/** CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range. */
std::uint32_t crc32(const void *data, std::size_t size);

/** Serializes scalars into a growing byte buffer. */
class StateWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    u32(std::uint32_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    u64(std::uint64_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** String with a u64 length prefix (checkpoint payloads). */
    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** String with a u32 length prefix (trace and profile files). */
    void
    str32(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    /** Raw byte block (length must be known to the reader).
     * Out-of-line: GCC 12 -O2 emits a bogus -Wstringop-overflow
     * through the inlined vector::insert otherwise. */
    void raw(const void *data, std::size_t size);

    void reserve(std::size_t size) { buf.reserve(size); }

    const std::vector<std::uint8_t> &buffer() const { return buf; }
    std::size_t size() const { return buf.size(); }

    /** Moves the bytes out, leaving the writer empty. */
    std::vector<std::uint8_t> take() { return std::move(buf); }

  private:
    std::vector<std::uint8_t> buf;
};

/**
 * Deserializes scalars from an untrusted byte buffer. Every read
 * method raises tpcp::Error on underflow, and every error message
 * starts with the reader's label, which names the input.
 */
class StateReader
{
  public:
    /** @p label names the input in error messages ("packet",
     * "trace <path>"); the reader keeps a view of it, so the label
     * must outlive the reader. */
    StateReader(const std::uint8_t *data, std::size_t size,
                std::string_view label = "state snapshot")
        : cur(data), end(data + size), label_(label)
    {
    }

    explicit StateReader(const std::vector<std::uint8_t> &buf,
                         std::string_view label = "state snapshot")
        : StateReader(buf.data(), buf.size(), label)
    {
    }

    std::uint8_t
    u8()
    {
        std::uint8_t v;
        raw(&v, sizeof(v));
        return v;
    }

    bool b() { return u8() != 0; }

    std::uint32_t
    u32()
    {
        std::uint32_t v;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v;
        raw(&v, sizeof(v));
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /** String with a u64 length prefix, bounded by 16 MiB and by
     * the remaining payload. */
    std::string str() { return readString(u64(), std::size_t{1} << 24); }

    /** String with a u32 length prefix, bounded by @p max_len. */
    std::string str32(std::uint32_t max_len)
    {
        return readString(u32(), max_len);
    }

    /**
     * Reads a u32 magic and a u32 version and raises unless they are
     * @p magic and @p version; the message prints magics in hex.
     */
    void header(std::uint32_t magic, std::uint32_t version);

    /**
     * Reads a u64 item count and raises unless that many items of
     * @p bytes_per_item bytes fit in the remaining payload — a
     * forged count is rejected before it sizes any allocation.
     */
    std::uint64_t
    count(std::size_t bytes_per_item)
    {
        return checkCount(u64(), bytes_per_item);
    }

    /** Returns @p n, or raises unless @p n items of
     * @p bytes_per_item bytes fit in the remaining payload (for a
     * count read from a different region than the items). */
    std::uint64_t checkCount(std::uint64_t n,
                             std::size_t bytes_per_item) const;

    /** A reader over the next @p size bytes, with this reader's
     * label; this reader moves past them. */
    StateReader
    sub(std::size_t size)
    {
        need(size);
        StateReader r(cur, size, label_);
        cur += size;
        return r;
    }

    /** CRC-32 of the bytes not yet read. */
    std::uint32_t crc() const { return crc32(cur, remaining()); }

    void
    raw(void *out, std::size_t size)
    {
        need(size);
        std::memcpy(out, cur, size);
        cur += size;
    }

    std::size_t
    remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }

    bool atEnd() const { return cur == end; }

  private:
    void
    need(std::size_t size) const
    {
        if (size > remaining())
            truncated(size);
    }

    [[noreturn]] void truncated(std::size_t size) const;

    /** Reads a @p len-byte string after checking it against
     * @p max_len and the remaining payload. */
    std::string readString(std::uint64_t len, std::size_t max_len);

    const std::uint8_t *cur;
    const std::uint8_t *end;
    std::string_view label_;
};

/** The complete contents of the file at @p path. Raises tpcp::Error
 * when the file cannot be opened or read. */
std::vector<std::uint8_t> readFile(const std::string &path);

/**
 * Writes @p bytes to @p path atomically: to a temp file in the same
 * directory, renamed over @p path, so a reader (or a resumed run)
 * sees the old file or the complete new one, never a torn write.
 * Returns false on I/O error, leaving no temp file behind.
 */
bool writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/** The state-file image of @p payload: the checksummed envelope
 * followed by the payload, byte for byte what writeStateFile()
 * writes. */
std::vector<std::uint8_t> sealStateFile(std::uint32_t magic,
                                        std::uint32_t version,
                                        const StateWriter &payload);

/**
 * Writes @p payload to @p path inside the checksummed envelope,
 * atomically. Returns false on I/O error.
 */
bool writeStateFile(const std::string &path, std::uint32_t magic,
                    std::uint32_t version, const StateWriter &payload);

/**
 * Validates a state-file image already in memory and returns its
 * payload bytes; @p what names the file in error messages. Raises
 * tpcp::Error when the image has the wrong magic or version, is
 * truncated, carries trailing bytes, or fails the CRC check.
 */
std::vector<std::uint8_t> parseStateFile(
    const std::vector<std::uint8_t> &bytes, std::uint32_t magic,
    std::uint32_t version, const std::string &what);

/** parseStateFile() on the contents of @p path (raises tpcp::Error
 * also when the file is missing). */
std::vector<std::uint8_t> readStateFile(const std::string &path,
                                        std::uint32_t magic,
                                        std::uint32_t version);

} // namespace tpcp

#endif // TPCP_COMMON_STATE_IO_HH
