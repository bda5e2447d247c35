#include "genomics/read_batch.hh"

#include <algorithm>
#include <cstring>

#include "util/status.hh"

namespace sage {

uint64_t
ReadBatch::footprintBytes() const
{
    return capacity_ + ends_.capacity() * sizeof(uint32_t);
}

uint64_t
ReadBatch::footprintBytes(const std::vector<Read> &reads)
{
    uint64_t bytes = 0;
    for (const Read &read : reads) {
        bytes += read.header.size() + read.bases.size() +
            read.quals.size() + kFields * sizeof(uint32_t);
    }
    return bytes;
}

Read
ReadBatch::read(size_t i) const
{
    return Read{std::string(header(i)), std::string(bases(i)),
                std::string(quals(i))};
}

void
ReadBatch::reserve(size_t reads, uint64_t bytes)
{
    ends_.reserve(ends_.size() + reads * kFields);
    if (size_ + bytes > capacity_)
        reallocate(size_ + bytes);
}

void
ReadBatch::reallocate(uint64_t capacity)
{
    std::unique_ptr<char[]> grown(new char[capacity]);
    if (size_ > 0)
        std::memcpy(grown.get(), arena_.get(), size_);
    arena_ = std::move(grown);
    capacity_ = capacity;
}

char *
ReadBatch::append(std::string_view header, size_t bases_size,
                  std::string_view quals)
{
    const uint64_t bytes = header.size() + bases_size + quals.size();
    sage_check_data(bytes <= kMaxBytes - size_, OutOfRange,
                    "read batch would pass ", kMaxBytes, " bytes");
    if (size_ + bytes > capacity_)
        reallocate(std::min(std::max(size_ + bytes, capacity_ * 2),
                            kMaxBytes));
    char *at = arena_.get() + size_;
    if (!header.empty())
        std::memcpy(at, header.data(), header.size());
    char *bases = at + header.size();
    if (!quals.empty())
        std::memcpy(bases + bases_size, quals.data(), quals.size());
    ends_.push_back(static_cast<uint32_t>(size_ + header.size()));
    ends_.push_back(
        static_cast<uint32_t>(size_ + header.size() + bases_size));
    size_ += bytes;
    ends_.push_back(static_cast<uint32_t>(size_));
    return bases;
}

void
ReadBatch::shrinkToFit()
{
    if (capacity_ != size_) {
        std::unique_ptr<char[]> exact(size_ > 0 ? new char[size_]
                                                : nullptr);
        if (size_ > 0)
            std::memcpy(exact.get(), arena_.get(), size_);
        arena_ = std::move(exact);
        capacity_ = size_;
    }
    ends_.shrink_to_fit();
}

} // namespace sage
