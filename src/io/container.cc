#include "io/container.hh"

#include <algorithm>

#include "util/crc32.hh"
#include "util/logging.hh"

namespace sage {

namespace {

/**
 * Sequential varint reader over a bounded prefix of a source. All
 * failures — truncation, malformed varints, I/O errors — come back as
 * Status so the parse of untrusted framing never kills the process.
 */
class VarintCursor
{
  public:
    VarintCursor(const ByteSource &source, uint64_t limit)
        : source_(source), limit_(limit)
    {}

    uint64_t position() const { return pos_; }

    void
    skip(uint64_t bytes)
    {
        pos_ += bytes;
    }

    Status
    next(uint64_t &value)
    {
        value = 0;
        unsigned shift = 0;
        for (;;) {
            if (pos_ >= limit_) {
                return Status::truncated("truncated archive ",
                                         source_.describe(),
                                         ": varint runs past byte ",
                                         limit_);
            }
            uint8_t byte;
            Status status = source_.tryReadAt(pos_++, &byte, 1);
            if (!status.ok())
                return status;
            value |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return Status();
            shift += 7;
            if (shift >= 64) {
                return Status::corrupt("malformed archive ",
                                       source_.describe(),
                                       ": varint overflow at byte ",
                                       pos_);
            }
        }
    }

  private:
    const ByteSource &source_;
    uint64_t limit_;
    uint64_t pos_ = 0;
};

} // namespace

StatusOr<StreamDirectory>
StreamDirectory::tryParse(const ByteSource &source)
{
    const uint64_t total = source.size();
    if (total < 4) {
        return Status::truncated("archive ", source.describe(),
                                 " too small (", total,
                                 " bytes): not a SAGe container");
    }
    const uint64_t body = total - 4; // CRC32 trailer.

    StreamDirectory dir;
    VarintCursor cursor(source, body);
    uint64_t count = 0;
    Status status = cursor.next(count);
    if (!status.ok())
        return status;
    // Each stream costs at least 3 framing bytes (empty name, empty
    // payload), so a count the body cannot hold is corrupt — reject
    // it before looping billions of times.
    if (count > body / 3 + 1) {
        return Status::corrupt("malformed archive ", source.describe(),
                               ": stream count ", count,
                               " cannot fit a ", body, "-byte body");
    }
    for (uint64_t i = 0; i < count; i++) {
        uint64_t name_len = 0;
        status = cursor.next(name_len);
        if (!status.ok())
            return status;
        if (name_len > body - std::min(cursor.position(), body)) {
            return Status::truncated("truncated archive ",
                                     source.describe(),
                                     ": stream name runs past the body");
        }
        std::string name(static_cast<size_t>(name_len), '\0');
        if (name_len > 0) {
            status = source.tryReadAt(cursor.position(), name.data(),
                                      static_cast<size_t>(name_len));
            if (!status.ok())
                return status;
        }
        cursor.skip(name_len);

        StreamExtent extent;
        status = cursor.next(extent.size);
        if (!status.ok())
            return status;
        extent.offset = cursor.position();
        if (extent.size > body - std::min(extent.offset, body)) {
            return Status::truncated(
                "truncated archive ", source.describe(), ": stream '",
                name, "' claims ", extent.size, " bytes at offset ",
                extent.offset, " of a ", body, "-byte body");
        }
        cursor.skip(extent.size);
        dir.extents_[name] = extent;
    }
    return dir;
}

bool
StreamDirectory::has(const std::string &name) const
{
    return extents_.count(name) > 0;
}

const StreamExtent &
StreamDirectory::extent(const std::string &name) const
{
    auto it = extents_.find(name);
    if (it == extents_.end())
        sage_fatal("missing stream: ", name);
    return it->second;
}

Status
StreamDirectory::tryLoad(const ByteSource &source,
                         const std::string &name,
                         std::vector<uint8_t> &out) const
{
    auto it = extents_.find(name);
    if (it == extents_.end())
        return Status::corrupt("missing stream: ", name);
    return source.tryRead(it->second.offset,
                          static_cast<size_t>(it->second.size), out);
}

std::map<std::string, uint64_t>
StreamDirectory::sizes() const
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, extent] : extents_)
        out[name] = extent.size;
    return out;
}

Status
verifyArchiveChecksumStatus(const ByteSource &source)
{
    const uint64_t total = source.size();
    if (total < 4) {
        return Status::truncated("archive ", source.describe(),
                                 " too small (", total,
                                 " bytes) to hold a CRC32 trailer");
    }
    const uint64_t body = total - 4;

    Crc32 crc;
    constexpr size_t kBlock = 1 << 20;
    std::vector<uint8_t> block;
    for (uint64_t pos = 0; pos < body; pos += kBlock) {
        const size_t span = static_cast<size_t>(
            std::min<uint64_t>(kBlock, body - pos));
        if (const uint8_t *direct = source.view(pos, span)) {
            crc.update(direct, span);
        } else {
            block.resize(span);
            Status status = source.tryReadAt(pos, block.data(), span);
            if (!status.ok())
                return status;
            crc.update(block.data(), span);
        }
    }

    uint8_t trailer[4];
    Status status = source.tryReadAt(body, trailer, 4);
    if (!status.ok())
        return status;
    uint32_t stored = 0;
    for (int i = 0; i < 4; i++)
        stored |= static_cast<uint32_t>(trailer[i]) << (8 * i);
    if (crc.value() != stored) {
        return Status::corrupt("archive ", source.describe(),
                               " CRC mismatch: stored ", stored,
                               ", computed ", crc.value());
    }
    return Status();
}

} // namespace sage
