/**
 * @file
 * Block-addressable lossless quality-score codec.
 *
 * Quality scores lack the DNA stream's redundancy, so genomic compressors
 * handle them as a separate stream with context modeling (paper §2.2,
 * §5.1.5). This codec is an order-2 adaptive range coder over the (small)
 * quality alphabet, chunked into independently decodable blocks so that a
 * variant-calling stage can fetch only the blocks around mismatches — the
 * access pattern the paper's host-side quality decompression argument
 * rests on (only ~0.03% of blocks touched on average, max 10.7%).
 *
 * Given the archive's chunk size, the writer ends blocks at chunk
 * boundaries, so a chunk decode pays for about its own chunk's quality
 * and the chunks of one archive decode their quality in parallel. The
 * model tables are flat and the decoder's symbol search needs no
 * division beyond range / total.
 */

#ifndef SAGE_COMPRESS_QUALITY_HH
#define SAGE_COMPRESS_QUALITY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace sage {

/** A compressed quality stream with random block access. */
struct QualityArchive
{
    /** Distinct quality characters, index = model symbol. */
    std::string alphabet;
    /** Independent compressed blocks. */
    std::vector<std::vector<uint8_t>> blocks;
    /** Number of quality characters in each block. */
    std::vector<uint64_t> blockChars;
    /** Per-read quality string lengths (restores record boundaries). */
    std::vector<uint32_t> readLengths;

    /** Total compressed size in bytes, including metadata estimate. */
    uint64_t compressedBytes() const;

    /** Total quality characters stored. */
    uint64_t totalChars() const;
};

/** Codec parameters. */
struct QualityConfig
{
    /** Most uncompressed characters per independently decodable
     *  block (at least 1). The paper cites 25 MB blocks; scaled down
     *  with our datasets. */
    uint64_t blockChars = 1 << 20;
};

/** Where one block sits inside a packed quality stream. */
struct QualityBlockExtent
{
    uint64_t chars = 0;   ///< Quality characters the block decodes to.
    uint64_t offset = 0;  ///< First compressed byte, from the stream start.
    uint64_t size = 0;    ///< Compressed bytes.
};

/** The framing of a packed quality stream. The compressed block
 *  payloads are not copied: each block is an extent of the stream. */
struct QualityLayout
{
    std::string alphabet;
    std::vector<uint32_t> readLengths;
    std::vector<QualityBlockExtent> blocks;
};

/** Exit with a clear error unless @p config can encode a stream (a
 *  zero blockChars would never advance past the first block). */
void requireValidQualityConfig(const QualityConfig &config);

/**
 * Compress per-read quality strings (order preserved).
 *
 * Blocks hold at most config.blockChars chars. With @p chunk_reads > 0
 * (reads per archive chunk, in @p quals order) a block also closes at
 * the first chunk boundary once it holds at least blockChars / 4
 * chars: a chunk of that size or more gets blocks of its own, and
 * smaller chunks share one. With @p chunk_reads == 0 every block but
 * the last holds exactly blockChars chars. Empty input gives one empty
 * block.
 */
QualityArchive compressQuality(const std::vector<std::string> &quals,
                               const QualityConfig &config = {},
                               uint64_t chunk_reads = 0);

/**
 * Serialize @p archive as one byte stream (the container's `quality`
 * stream): varint alphabet size and alphabet bytes, varint read count
 * and one varint length per read, varint block count, then per block
 * its varint char count, varint compressed size and payload.
 */
std::vector<uint8_t> packQuality(const QualityArchive &archive);

/**
 * Parse the framing of a packQuality stream of @p size bytes at
 * @p data without copying any block payload. Every varint and extent
 * is bounds-checked: Truncated when a field runs past the end, Corrupt
 * for an alphabet that cannot have come from compressQuality or for
 * block chars that do not sum to the read lengths.
 */
StatusOr<QualityLayout> tryParseQualityStream(const uint8_t *data,
                                              size_t size);

/**
 * The one block decoder: decode the @p size compressed bytes at
 * @p data into exactly @p chars quality characters at @p out, with the
 * model over @p alphabet (non-empty). Random access: a block needs no
 * other block's state.
 */
void decodeQualityBlockInto(std::string_view alphabet, const uint8_t *data,
                            size_t size, uint64_t chars, char *out);

/** Decompress every block, restoring the original strings. */
std::vector<std::string> decompressQuality(const QualityArchive &archive);

/** Decompress a single block's character payload (random access). */
std::string decompressQualityBlock(const QualityArchive &archive,
                                   size_t block_index);

} // namespace sage

#endif // SAGE_COMPRESS_QUALITY_HH
