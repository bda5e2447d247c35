/**
 * @file
 * ReadBatch: a run of reads laid out flat in one byte arena.
 *
 * A Read is three heap strings; a batch of N reads is one arena (at
 * most 4 GiB) plus one array of 32-bit offsets. Each read occupies header, bases and quality back
 * to back in the arena, and the offset array records where each of the
 * three fields ends, so read i's fields are string_views computed from
 * two neighbouring offsets. The decoder fills one batch per chunk
 * (core/decoder.hh), the service's chunk cache holds it immutable
 * behind a shared_ptr (service/chunk_cache.hh), and the wire encoder
 * copies reply fields straight out of it (net/protocol.hh): decoded
 * reads reach the socket without a per-read allocation or an
 * intermediate copy, the software analogue of SAGe streaming reads
 * straight into the consumer's buffers (paper §5.2).
 *
 * Building is append-only: reserve() the exact read count and arena
 * size when they are known (the decoder knows both before it decodes
 * a chunk), then append() each read and fill its bases slot. A batch
 * is move-only; once built it is shared read-only.
 */

#ifndef SAGE_GENOMICS_READ_BATCH_HH
#define SAGE_GENOMICS_READ_BATCH_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "genomics/read.hh"

namespace sage {

/** Flat, append-only read container (see file comment). */
class ReadBatch
{
  public:
    ReadBatch() = default;
    ReadBatch(ReadBatch &&other) noexcept { *this = std::move(other); }
    ReadBatch &
    operator=(ReadBatch &&other) noexcept
    {
        arena_ = std::move(other.arena_);
        size_ = std::exchange(other.size_, 0);
        capacity_ = std::exchange(other.capacity_, 0);
        ends_ = std::move(other.ends_);
        other.ends_.clear();
        return *this;
    }
    ReadBatch(const ReadBatch &) = delete;
    ReadBatch &operator=(const ReadBatch &) = delete;

    /** Reads in the batch. */
    size_t size() const { return ends_.size() / kFields; }

    std::string_view header(size_t i) const { return field(i, 0); }
    std::string_view bases(size_t i) const { return field(i, 1); }
    std::string_view quals(size_t i) const { return field(i, 2); }

    /** Header + bases + quality bytes of reads [@p begin, @p begin +
     *  @p count): the payload unit every served-bytes counter uses. */
    uint64_t
    payloadBytes(size_t begin, size_t count) const
    {
        return count == 0 ? 0 : start(begin + count) - start(begin);
    }

    /** Arena bytes one batch can hold: offsets are 32-bit. */
    static constexpr uint64_t kMaxBytes = UINT32_MAX;

    /** Heap bytes the batch holds: the arena and offset array as
     *  allocated (capacity, not size). */
    uint64_t footprintBytes() const;

    /** footprintBytes() of a batch holding exactly @p reads. */
    static uint64_t footprintBytes(const std::vector<Read> &reads);

    /** Owned copy of read @p i. */
    Read read(size_t i) const;

    // ---- building ------------------------------------------------------

    /** Allocate room for @p reads more reads and @p bytes more arena
     *  bytes, exactly (no growth headroom). */
    void reserve(size_t reads, uint64_t bytes);

    /**
     * Append one read, copying @p header and @p quals, and return the
     * @p bases_size-byte bases slot between them for the caller to
     * fill. The pointer stays valid until the next append. Throws
     * StatusError (OutOfRange) rather than grow past kMaxBytes.
     */
    char *append(std::string_view header, size_t bases_size,
                 std::string_view quals);

    /** Release growth headroom so footprintBytes() equals the
     *  payload plus offsets (a no-op after an exact reserve()). */
    void shrinkToFit();

  private:
    static constexpr size_t kFields = 3;  ///< header, bases, quality

    /** Arena offset where read @p i starts (== where i-1 ends). */
    uint32_t
    start(size_t i) const
    {
        return i == 0 ? 0 : ends_[i * kFields - 1];
    }

    std::string_view
    field(size_t i, size_t f) const
    {
        const size_t at = i * kFields + f;
        const uint32_t begin = at == 0 ? 0 : ends_[at - 1];
        return {arena_.get() + begin,
                static_cast<size_t>(ends_[at] - begin)};
    }

    /** Grow the arena to hold at least @p capacity bytes. */
    void reallocate(uint64_t capacity);

    /** Uninitialised arena storage (filled by append only). */
    std::unique_ptr<char[]> arena_;
    uint64_t size_ = 0;
    uint64_t capacity_ = 0;
    /** Per read: header end, bases end, quality end (arena offsets). */
    std::vector<uint32_t> ends_;
};

} // namespace sage

#endif // SAGE_GENOMICS_READ_BATCH_HH
