/**
 * @file
 * Container directory access over a ByteSource.
 *
 * A SAGe archive is a StreamBundle (compress/streams.hh): a varint
 * count of named streams, each name/payload varint-length-prefixed,
 * with a trailing CRC32. StreamDirectory parses only the framing —
 * names and (offset, size) extents — seeking over the payloads, so an
 * archive's table of contents costs a few KB of reads no matter how
 * large the file is. The decoder then fetches exactly the byte slices
 * it needs (per-chunk, via the v2 chunk table) through the same
 * source.
 */

#ifndef SAGE_IO_CONTAINER_HH
#define SAGE_IO_CONTAINER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/byte_stream.hh"

namespace sage {

/** Byte span of one named stream inside the archive. */
struct StreamExtent
{
    uint64_t offset = 0;  ///< Absolute position of the payload.
    uint64_t size = 0;    ///< Payload bytes.
};

/** Parsed table of contents of a serialized StreamBundle. */
class StreamDirectory
{
  public:
    StreamDirectory() = default;

    /**
     * Parse the framing from @p source without touching payloads.
     * Every varint, name span, and payload extent of the untrusted
     * framing is bounds-checked against the body; a bad container
     * comes back as Truncated/Corrupt/OutOfRange, and an I/O failure
     * as the source's read status.
     */
    static StatusOr<StreamDirectory> tryParse(const ByteSource &source);

    bool has(const std::string &name) const;

    /** Extent of stream @p name; fatal when missing (check has()). */
    const StreamExtent &extent(const std::string &name) const;

    /** Load one stream's payload through @p source into @p out:
     *  Corrupt when the stream is missing, else the source's tryRead
     *  status. */
    Status tryLoad(const ByteSource &source, const std::string &name,
                   std::vector<uint8_t> &out) const;

    /** All extents, in name order (the bundle's serialization order). */
    const std::map<std::string, StreamExtent> &
    extents() const
    {
        return extents_;
    }

    /** Per-stream sizes (ArchiveInfo / Fig. 17 reporting). */
    std::map<std::string, uint64_t> sizes() const;

  private:
    std::map<std::string, StreamExtent> extents_;
};

/**
 * Stream the archive body through CRC32 in fixed blocks and compare
 * with the trailer. Reads the whole source (sequentially, without
 * holding it resident); callers on a streaming path usually skip this
 * and rely on per-read validation instead. Ok when the trailer
 * matches, Corrupt (with both CRC values) when it does not,
 * Truncated when the source cannot even hold a trailer, and the
 * underlying read status on I/O failure.
 */
Status verifyArchiveChecksumStatus(const ByteSource &source);

} // namespace sage

#endif // SAGE_IO_CONTAINER_HH
