#include "io/byte_stream.hh"

#include <cstring>

#include "util/logging.hh"

namespace sage {

std::vector<uint8_t>
ByteSource::read(uint64_t offset, size_t size) const
{
    std::vector<uint8_t> out(size);
    if (size > 0)
        readAt(offset, out.data(), size);
    return out;
}

std::vector<uint8_t>
ByteSource::readAll() const
{
    return read(0, static_cast<size_t>(size()));
}

void
ByteSource::readAt(uint64_t offset, void *dst, size_t size) const
{
    Status status = tryReadAt(offset, dst, size);
    if (!status.ok())
        sage_fatal(status.toString());
}

void
ByteSource::readBatch(const Extent *extents, size_t count) const
{
    Status status = tryReadBatch(extents, count);
    if (!status.ok())
        sage_fatal(status.toString());
}

Status
ByteSource::checkRange(uint64_t offset, size_t size) const
{
    const uint64_t total = this->size();
    if (offset > total || size > total - offset) {
        return Status::outOfRange("read past end of ", describe(), ": [",
                                  offset, ", ", offset + size, ") in ",
                                  total, " bytes");
    }
    return Status();
}

Status
ByteSource::tryReadBatch(const Extent *extents, size_t count) const
{
    for (size_t i = 0; i < count; i++) {
        if (extents[i].size == 0)
            continue;
        Status status = tryReadAt(extents[i].offset, extents[i].dst,
                                  extents[i].size);
        if (!status.ok())
            return status;
    }
    return Status();
}

Status
ByteSource::tryRead(uint64_t offset, size_t size,
                    std::vector<uint8_t> &out) const
{
    out.resize(size);
    if (size == 0)
        return Status();
    return tryReadAt(offset, out.data(), size);
}

Status
MemorySource::tryReadAt(uint64_t offset, void *dst, size_t size) const
{
    if (size == 0)
        return Status();
    Status status = checkRange(offset, size);
    if (status.ok())
        std::memcpy(dst, data_ + offset, size);
    return status;
}

const uint8_t *
MemorySource::view(uint64_t offset, size_t size) const
{
    if (offset > size_ || size > size_ - offset)
        return nullptr;
    return data_ + offset;
}

void
MemorySink::write(const void *data, size_t size)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + size);
}

} // namespace sage
