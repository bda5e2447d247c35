/**
 * @file
 * SAGe decompressor: one decode primitive over an immutable archive.
 *
 * Mirrors the hardware datapath (paper §5.2): a Scan Unit walk over the
 * position arrays/guide arrays and a Read Construction Unit walk over
 * the consensus and MBTA, emitting one read at a time with only
 * sequential accesses. As in the paper, where one datapath serves
 * every SAGe_Read, the decoder exposes exactly one way to decode:
 * tryDecodeChunkShared(), which turns one chunk into one flat
 * ReadBatch of stored-order reads. The same functional core backs:
 *   - SAGeSW (host software decompression, paper §7 config v), and
 *   - the hardware timing model (hw/), which replays the stream sizes
 *     this decoder reports.
 *
 * The decoder reads the container through a ByteSource
 * (io/byte_stream.hh): headers, chunk table, consensus, the read
 * headers and the order stream are parsed at open, and so is the
 * quality stream's framing (alphabet, read lengths, block extents),
 * while the 13 DNA streams are fetched per chunk, exactly when a chunk
 * is decoded. Quality is decoded lazily, per block (paper §5.1.5): the
 * first chunk decode that touches a quality block fetches and decodes
 * that block once into the decoder's flat quality buffer, and every
 * later chunk reads it from there. Over a FileSource this decodes any
 * chunk without ever loading the full archive; over a MemorySource the
 * per-chunk fetches are zero-copy views. A StripedSource
 * (io/striped.hh) serves chunk fetches from a device array (paper
 * Fig. 15).
 *
 * Container v2 archives carry a chunk index (format.hh): each chunk is
 * an independently decodable slice of the read set, the software
 * analogue of the paper's per-Scan-Unit slices. v1 archives load as a
 * single chunk.
 *
 * The decoder is immutable after open apart from its quality blocks,
 * each decoded exactly once under its own lock, and
 * tryDecodeChunkShared() is const, so any number of threads may decode
 * chunks of one decoder concurrently. It holds no cursor: the
 * sequential walk, the
 * whole-archive and packed decodes, the order restoration and the
 * decode-ahead all live in SageReader (io/session.hh), which is what
 * most users should open instead of a SageDecoder.
 */

#ifndef SAGE_CORE_DECODER_HH
#define SAGE_CORE_DECODER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/format.hh"
#include "genomics/alphabet.hh"
#include "genomics/read_batch.hh"
#include "io/byte_stream.hh"
#include "io/container.hh"

namespace sage {

class BitReader;

/** Per-archive structural info used by the hardware timing model. */
struct ArchiveInfo
{
    SageParams params;
    std::map<std::string, uint64_t> streamSizes;
    uint64_t totalCompressedBytes = 0;

    /** DNA-path bytes the accelerator must stream (no host streams). */
    uint64_t dnaStreamBytes() const;
};

/** Chunk decoder over a SAGe archive (see file comment). */
class SageDecoder
{
  public:
    ~SageDecoder();

    SageDecoder(const SageDecoder &) = delete;
    SageDecoder &operator=(const SageDecoder &) = delete;

    /**
     * Open an archive over @p source: the only way to construct a
     * decoder. Cheap: headers, the chunk table and the quality framing
     * are parsed, while the DNA streams are not read until chunks are
     * decoded. The source must outlive the decoder. Every framing
     * field, stream table entry and header stream is bounds-checked,
     * and a malformed or unreadable archive comes back as a Status
     * (Truncated/Corrupt/IoError/...) instead of killing the process;
     * callers that cannot go on without the archive (SageReader,
     * SageArchiveService's path and source constructors) die at their
     * own edge, naming the source and the Status.
     *
     * @param dna_only skip the host-side quality/header streams: the
     *        read-mapping pipeline never touches quality scores (paper
     *        §5.1.5 — they are decoded lazily, per block, only around
     *        mismatches during later variant calling), so the prep
     *        stage feeding an accelerator decodes DNA alone.
     * @param verify_checksum stream the whole archive through CRC32
     *        before decoding (reads every byte; defeats the lazy
     *        open, so it is opt-in).
     */
    static StatusOr<std::unique_ptr<SageDecoder>>
    tryOpen(const ByteSource &source, bool dna_only = false,
            bool verify_checksum = false);

    /** Structural info (sizes, params). */
    const ArchiveInfo &info() const { return info_; }

    /** Number of independently decodable chunks (1 for v1 archives). */
    size_t chunkCount() const { return chunks_.size(); }

    /** Reads stored in chunk @p chunk. */
    uint64_t chunkReadCount(size_t chunk) const;

    /** Stored-order index of chunk @p chunk's first read. */
    uint64_t chunkFirstRead(size_t chunk) const;

    /** Absolute extents in the source of chunk @p chunk's 13 DNA
     *  stream slices, in ChunkStreamIndex order (format.hh); a v1
     *  archive's one chunk spans every stream. This is the one place
     *  the chunk layout is resolved: the chunk fetch reads these
     *  extents, and SageDevice places chunks on pages by them. */
    const std::array<StreamExtent, kChunkStreamCount> &
    chunkExtents(size_t chunk) const;

    /** Per-chunk compressed DNA bytes (slice sizes summed across the
     *  13 streams) — the I/O cost of fetching each chunk, used by the
     *  pipeline model to overlap chunk I/O with decode. */
    std::vector<uint64_t> chunkCompressedBytes() const;

    /**
     * The decode primitive: decode chunk @p chunk alone into one flat
     * ReadBatch of stored-order reads (header, bases and quality; the
     * host fields are empty when the archive was opened DNA-only or
     * carries none). The quality blocks the chunk overlaps are
     * decoded first, unless an earlier call already did. The batch is
     * sized exactly before decoding (the host fields are then
     * resident and a pre-pass over the length stream gives the base
     * count), each read decodes into one reused scratch string and is
     * copied into its arena slot, so a chunk costs a constant handful
     * of allocations whatever its read count.
     *
     * Writes no decoder state but the quality blocks it decodes, each
     * exactly once under its own lock: any number of threads may call
     * it concurrently, each fetching its own byte slices through the
     * thread-safe ByteSource, and the same chunk decodes repeatably.
     *
     * I/O failures (through the source's recoverable read path),
     * corrupt chunk data and an out-of-range @p chunk come back as a
     * Status instead of aborting, so one bad chunk degrades one
     * request, not the process. A quality block whose fetch or decode
     * failed stays undecoded, and the next call that needs it retries.
     */
    StatusOr<ReadBatch> tryDecodeChunkShared(size_t chunk) const;

    /** Decoder working-set bytes: registers + consensus window model.
     *  (The HW streams the consensus; software keeps it resident.) */
    uint64_t workingSetBytes() const;

  private:
    friend class SageReader;

    struct ChunkCursor;

    /** One chunk's reads and its slices, resolved from the chunk
     *  table at open. */
    struct ChunkSlice
    {
        uint64_t readCount = 0;
        uint64_t firstRead = 0;  ///< Prefix sum of readCount.
        /** Absolute slice extents, ChunkStreamIndex order. */
        std::array<StreamExtent, kChunkStreamCount> extents{};
    };

    /** One chunk's 13 stream slices: zero-copy views where the source
     *  provides them, otherwise copies in one owned buffer (moving the
     *  struct moves the buffer, so the slice pointers stay valid). */
    struct ChunkBytes
    {
        std::vector<uint8_t> owned;
        std::array<const uint8_t *, kChunkStreamCount> data{};
        std::array<size_t, kChunkStreamCount> sizes{};
    };

    /** One host stream held flat: field i is data[begin, ends[i]),
     *  where begin is ends[i-1] plus @c gap separator bytes (0 for
     *  the first field). Fields past ends.size() read as empty. The
     *  bytes are owned by the decoder (headerBytes_, qualityChars_). */
    struct FlatField
    {
        const char *data = nullptr;
        std::vector<uint64_t> ends;
        uint64_t gap = 0;

        /** Offset of field @p i's first byte; @p i == ends.size()
         *  gives the end of the last field plus the gap. */
        uint64_t
        begin(uint64_t i) const
        {
            return i == 0 ? 0 : ends[i - 1] + gap;
        }

        std::string_view
        at(uint64_t i) const
        {
            if (i >= ends.size())
                return {};
            return {data + begin(i),
                    static_cast<size_t>(ends[i] - begin(i))};
        }
    };

    /** One independently decodable quality block: its slice of the
     *  flat quality buffer and its compressed bytes in the source. */
    struct QualityBlock
    {
        uint64_t firstChar = 0;  ///< Offset of its chars in qualityChars_.
        uint64_t chars = 0;
        uint64_t offset = 0;     ///< Absolute position of the payload.
        uint64_t size = 0;       ///< Compressed bytes.
        /** Serializes the block's decode; decoded publishes its chars. */
        mutable std::mutex mutex;
        mutable std::atomic<bool> decoded{false};
    };

    /** tryOpen's blank instance; every member has a safe default. */
    SageDecoder() = default;

    /** tryOpen's core: parses and validates untrusted container
     *  framing, stream tables and host streams. */
    Status tryParseContainer(bool dna_only);

    /** Parse the quality stream's framing into quals_.ends and
     *  qualityBlocks_ and size qualityChars_; decodes no block.
     *  @p scratch holds the stream while it is parsed when the source
     *  cannot lend a view of it. */
    Status tryParseQuality(std::vector<uint8_t> &scratch);

    /** Fetch every stream slice of chunk @p chunk (chunkExtents())
     *  through the source: views where the source has them, the rest
     *  copied into one owned buffer by one batched read. */
    StatusOr<ChunkBytes> tryFetchChunkBytes(size_t chunk) const;

    /** Quality blocks [first, end) holding the quality of chunks
     *  [@p first_chunk, @p end_chunk); empty without quality. */
    std::pair<size_t, size_t> qualityBlockSpan(size_t first_chunk,
                                               size_t end_chunk) const;

    /** Fetch and decode quality block @p block into qualityChars_
     *  unless it already is; thread-safe, decodes each block once. A
     *  failure leaves the block undecoded for a later call to retry. */
    Status tryDecodeQualityBlock(size_t block) const;

    /** Decode the next read's bases via @p cur into @p bases (cleared
     *  first; its capacity is reused) in stored orientation. Returns
     *  true when the read is a reverse strand, i.e. @p bases still
     *  needs reverse-complementing. */
    bool decodeOriented(ChunkCursor &cur, std::string &bases) const;

    /** Decode one variable read length from the length stream
     *  (Corrupt past 2^31 bases). */
    uint64_t decodeLength(BitReader &rla, BitReader &rlga) const;

    /** Base count of the next @p reads reads of @p cur (their longest
     *  in @p max_length), from a pre-pass over the length stream that
     *  leaves @p cur untouched. */
    uint64_t measureBases(const ChunkCursor &cur, uint64_t reads,
                          uint64_t &max_length) const;

    /** Stored-to-original read index permutation (empty unless the
     *  archive preserved input order); validated at open. SageReader
     *  scatters whole-archive decodes through it. */
    const std::vector<uint32_t> &order() const { return order_; }

    const ByteSource *source_ = nullptr;
    StreamDirectory dir_;

    ArchiveInfo info_;
    std::string consensus_;

    // Host-side streams, indexed by stored-order read index.
    FlatField headers_;
    std::vector<uint8_t> headerBytes_;  ///< Backs headers_.data.
    FlatField quals_;
    /** Backs quals_.data: sized at open but left uninitialized, so a
     *  block's pages become resident only once it is decoded. */
    std::unique_ptr<char[]> qualityChars_;
    std::string qualityAlphabet_;
    std::vector<QualityBlock> qualityBlocks_;
    std::vector<uint32_t> order_;

    // Field codecs: immutable after open, shared by all chunk cursors
    // (decode() is const and thread-safe).
    std::unique_ptr<const TunedFieldCodec> matchCodec_, lenCodec_,
        countCodec_, posCodec_, segposCodec_, seglenCodec_;

    std::vector<ChunkSlice> chunks_;
};

} // namespace sage

#endif // SAGE_CORE_DECODER_HH
