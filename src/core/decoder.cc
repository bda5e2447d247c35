#include "core/decoder.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "compress/gpzip.hh"
#include "core/tuned_array.hh"
#include "genomics/kernels.hh"
#include "util/bitio.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/varint.hh"

namespace sage {

uint64_t
ArchiveInfo::dnaStreamBytes() const
{
    uint64_t total = 0;
    for (const auto &[name, size] : streamSizes) {
        if (name != "quality" && name != "headers" && name != "order")
            total += size;
    }
    return total;
}

namespace {

/** Cap on the bases buffer reserved ahead of a read's decode, so a
 *  corrupt length cannot drive a huge speculative allocation. */
constexpr uint64_t kMaxBasesReserveBytes = uint64_t{1} << 20;

/** Largest batch arena reserved before a chunk is decoded; past this
 *  the arena grows as reads arrive, for the same reason. */
constexpr uint64_t kMaxBatchReserveBytes = uint64_t{256} << 20;

} // namespace

/**
 * All stream cursors for one chunk. Chunks are byte-aligned and carry
 * no cross-chunk delta state (format.hh), so a cursor built from the
 * chunk-table offsets decodes its slice with no predecessor knowledge —
 * that independence is what the parallel decode path exploits.
 *
 * The cursor adopts exactly this chunk's byte slices as fetched by
 * tryFetchChunkBytes(): zero-copy views when the source can provide
 * them (resident archives), one owned buffer otherwise (files,
 * stripes).
 */
struct SageDecoder::ChunkCursor
{
    explicit ChunkCursor(ChunkBytes &&fetched) : bytes(std::move(fetched))
    {
        auto reader = [&](unsigned s) {
            return BitReader(bytes.data[s], bytes.sizes[s]);
        };
        flags = reader(kChunkFlags);
        mpa = reader(kChunkMpa);
        mpga = reader(kChunkMpga);
        rla = reader(kChunkRla);
        rlga = reader(kChunkRlga);
        sga = reader(kChunkSga);
        sgga = reader(kChunkSgga);
        mca = reader(kChunkMca);
        mcga = reader(kChunkMcga);
        mmpa = reader(kChunkMmpa);
        mmpga = reader(kChunkMmpga);
        mbta = reader(kChunkMbta);
    }

    ChunkBytes bytes;
    BitReader flags{nullptr, 0}, mpa{nullptr, 0}, mpga{nullptr, 0},
        rla{nullptr, 0}, rlga{nullptr, 0}, sga{nullptr, 0},
        sgga{nullptr, 0}, mca{nullptr, 0}, mcga{nullptr, 0},
        mmpa{nullptr, 0}, mmpga{nullptr, 0}, mbta{nullptr, 0};
    /** Escape payloads are whole 3-bit-packed byte blocks, so a plain
     *  byte cursor (relative to this chunk's slice) replaces a bit
     *  reader here. */
    size_t escapeByte = 0;
    uint64_t prevPrimary = 0;
};

SageDecoder::SageDecoder(const ByteSource &source, bool dna_only,
                         bool verify_checksum)
    : source_(&source)
{
    if (verify_checksum && !verifyArchiveChecksum(source)) {
        sage_fatal("archive CRC mismatch (corrupt data): ",
                   source.describe());
    }
    parseContainer(dna_only);
}

SageDecoder::SageDecoder(const std::vector<uint8_t> &archive,
                         bool dna_only)
    : ownedSource_(std::make_unique<MemorySource>(archive)),
      source_(ownedSource_.get())
{
    // Resident archives keep the historical whole-container CRC check:
    // any bit flip dies here, before a single read is produced.
    if (!verifyArchiveChecksum(*source_))
        sage_fatal("stream bundle CRC mismatch (corrupt data)");
    parseContainer(dna_only);
}

StatusOr<std::unique_ptr<SageDecoder>>
SageDecoder::tryOpen(const ByteSource &source, bool dna_only,
                     bool verify_checksum)
{
    if (verify_checksum) {
        Status status = verifyArchiveChecksumStatus(source);
        if (!status.ok())
            return status;
    }
    std::unique_ptr<SageDecoder> decoder(new SageDecoder());
    decoder->source_ = &source;
    Status status = decoder->tryParseContainer(dna_only);
    if (!status.ok())
        return status;
    return StatusOr<std::unique_ptr<SageDecoder>>(std::move(decoder));
}

SageDecoder::~SageDecoder() = default;

StatusOr<SageDecoder::ChunkBytes>
SageDecoder::tryFetchChunkBytes(const ChunkSlice &slice) const
{
    // Zero-copy views where the source provides them; everything else
    // lands in one owned buffer through one batched read (FileSource
    // coalesces the slices into preadv calls).
    ChunkBytes bytes;
    std::array<uint64_t, kChunkStreamCount> offsets{};
    size_t owned = 0;
    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        bytes.sizes[s] = static_cast<size_t>(slice.sizes[s]);
        offsets[s] = dnaExtents_[s].offset + slice.offsets[s];
        if (bytes.sizes[s] == 0)
            continue;
        bytes.data[s] = source_->view(offsets[s], bytes.sizes[s]);
        if (!bytes.data[s])
            owned += bytes.sizes[s];
    }
    bytes.owned.resize(owned);
    std::array<ByteSource::Extent, kChunkStreamCount> fetch;
    size_t fetches = 0, at = 0;
    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        if (bytes.sizes[s] == 0 || bytes.data[s])
            continue;
        uint8_t *dst = bytes.owned.data() + at;
        bytes.data[s] = dst;
        fetch[fetches++] = {offsets[s], dst, bytes.sizes[s]};
        at += bytes.sizes[s];
    }
    if (fetches > 0) {
        Status status = source_->tryReadBatch(fetch.data(), fetches);
        if (!status.ok())
            return status;
    }
    return StatusOr<ChunkBytes>(std::move(bytes));
}

void
SageDecoder::parseContainer(bool dna_only)
{
    Status status = tryParseContainer(dna_only);
    if (!status.ok())
        sage_fatal(status.message());
}

Status
SageDecoder::tryParseContainer(bool dna_only)
try {
    StatusOr<StreamDirectory> parsed = StreamDirectory::tryParse(*source_);
    if (!parsed.ok())
        return parsed.status();
    dir_ = std::move(parsed.value());

    std::vector<uint8_t> raw;
    Status status = dir_.tryLoad(*source_, "params", raw);
    if (!status.ok())
        return status;
    info_.params = SageParams::deserialize(raw);
    info_.streamSizes = dir_.sizes();
    info_.totalCompressedBytes = source_->size();

    const SageParams &params = info_.params;
    status = dir_.tryLoad(*source_, "consensus", raw);
    if (!status.ok())
        return status;
    // Validate the packed consensus length against its stream size
    // before unpacking: unpackSequence trusts its arguments, and a
    // corrupt params stream must not send it past the buffer (or into
    // a multi-terabyte allocation).
    const uint64_t cons_len = params.consensusLength;
    sage_check_data(cons_len <= (uint64_t{1} << 42), Corrupt,
                    "consensus length ", cons_len, " out of range");
    const uint64_t cons_need = params.consensusTwoBit
        ? (cons_len + 3) / 4 : (cons_len * 3 + 7) / 8;
    sage_check_data(raw.size() >= cons_need, Truncated,
                    "consensus stream holds ", raw.size(), " bytes; ",
                    cons_len, " bases need ", cons_need);
    consensus_ = unpackSequence(
        raw, cons_len,
        params.consensusTwoBit ? OutputFormat::TwoBit
                               : OutputFormat::ThreeBit);

    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        if (!dir_.has(kChunkStreamNames[s]))
            return Status::corrupt("missing stream: ",
                                   kChunkStreamNames[s]);
        dnaExtents_[s] = dir_.extent(kChunkStreamNames[s]);
    }

    // Host-side streams (skipped entirely in DNA-only mode). Each
    // must hold exactly one field per read: a short stream would serve
    // the missing reads with empty fields.
    if (!dna_only) {
        status = dir_.tryLoad(*source_, "headers", raw);
        if (!status.ok())
            return status;
        StatusOr<std::vector<uint8_t>> headers = gpzip::tryDecompress(raw);
        if (!headers.ok())
            return headers.status();
        // Headers stay the flat '\n'-separated gpzip output; each
        // field ends at its newline (an unterminated tail is dropped).
        headerBytes_ = std::move(headers.value());
        headers_.data = reinterpret_cast<const char *>(headerBytes_.data());
        headers_.gap = 1;
        const auto begin = headerBytes_.begin();
        for (auto at = begin;
             (at = std::find(at, headerBytes_.end(), '\n')) !=
             headerBytes_.end();
             ++at)
            headers_.ends.push_back(static_cast<uint64_t>(at - begin));
        sage_check_data(headers_.ends.size() == params.numReads, Corrupt,
                        "headers stream holds ", headers_.ends.size(),
                        " fields for ", params.numReads, " reads");
    }
    if (dir_.has("order")) {
        status = dir_.tryLoad(*source_, "order", raw);
        if (!status.ok())
            return status;
        size_t pos = 0;
        while (pos < raw.size())
            order_.push_back(static_cast<uint32_t>(getVarint(raw, pos)));
        // SageReader scatters every stored read to its slot through
        // this permutation: one in-range entry per read.
        sage_check_data(order_.size() == params.numReads, Corrupt,
                        "order stream holds ", order_.size(),
                        " entries for ", params.numReads, " reads");
        for (const uint32_t index : order_) {
            sage_check_data(index < order_.size(), Corrupt,
                            "order index ", index, " out of range");
        }
    }
    if (!dna_only && params.hasQuality) {
        status = tryParseQuality(raw);
        if (!status.ok())
            return status;
    }

    matchCodec_ = std::make_unique<TunedFieldCodec>(params.matchPos);
    lenCodec_ = std::make_unique<TunedFieldCodec>(params.readLen);
    countCodec_ = std::make_unique<TunedFieldCodec>(params.mismatchCount);
    posCodec_ = std::make_unique<TunedFieldCodec>(params.mismatchPos);
    segposCodec_ = std::make_unique<TunedFieldCodec>(params.segPos);
    seglenCodec_ = std::make_unique<TunedFieldCodec>(params.segLen);

    // Chunk index: v2 archives carry one; a v1 archive is one chunk
    // spanning every stream from offset zero. Slice sizes run to the
    // next chunk's offset (or the stream end for the last chunk), so a
    // cursor fetches exactly its chunk's bytes.
    if (params.version >= kFormatVersionChunked) {
        status = dir_.tryLoad(*source_, "chunks", raw);
        if (!status.ok())
            return status;
        const ChunkTable table = ChunkTable::deserialize(raw);
        chunks_.reserve(table.entries.size());
        uint64_t first = 0;
        for (const ChunkTable::Entry &entry : table.entries) {
            ChunkSlice slice;
            slice.readCount = entry.readCount;
            slice.firstRead = first;
            slice.offsets = entry.offsets;
            chunks_.push_back(slice);
            first += entry.readCount;
        }
        sage_check_data(first == params.numReads, Corrupt,
                        "chunk table disagrees with read count");
    } else {
        ChunkSlice slice;
        slice.readCount = params.numReads;
        chunks_.push_back(slice);
    }
    for (size_t c = 0; c < chunks_.size(); c++) {
        for (unsigned s = 0; s < kChunkStreamCount; s++) {
            const uint64_t begin = chunks_[c].offsets[s];
            const uint64_t end = c + 1 < chunks_.size()
                ? chunks_[c + 1].offsets[s] : dnaExtents_[s].size;
            sage_check_data(begin <= end && end <= dnaExtents_[s].size,
                            Corrupt,
                            "chunk table offsets out of order in stream ",
                            kChunkStreamNames[s]);
            chunks_[c].sizes[s] = end - begin;
        }
    }
    return Status();
} catch (const StatusError &err) {
    return err.status();
} catch (const std::bad_alloc &) {
    return Status::corrupt("archive rejected: parsing exceeded the "
                           "allocation limit");
} catch (const std::length_error &) {
    return Status::corrupt("archive rejected: parsing exceeded the "
                           "allocation limit");
}

Status
SageDecoder::tryParseQuality(std::vector<uint8_t> &scratch)
{
    // Only the framing is parsed here: the blocks stay in the source
    // until a chunk decode first touches them. A source without views
    // lends the stream through @p scratch for the parse alone.
    if (!dir_.has("quality"))
        return Status::corrupt("missing stream: quality");
    const StreamExtent extent = dir_.extent("quality");
    const uint8_t *packed = source_->view(extent.offset,
                                          static_cast<size_t>(extent.size));
    if (!packed) {
        Status status = dir_.tryLoad(*source_, "quality", scratch);
        if (!status.ok())
            return status;
        packed = scratch.data();
    }
    StatusOr<QualityLayout> layout =
        tryParseQualityStream(packed, static_cast<size_t>(extent.size));
    if (!layout.ok())
        return layout.status();
    sage_check_data(layout->readLengths.size() == info_.params.numReads,
                    Corrupt, "quality stream holds ",
                    layout->readLengths.size(), " reads for ",
                    info_.params.numReads);

    // Read lengths become prefix sums: quality field i ends at
    // quals_.ends[i] in the flat buffer the blocks decode into.
    quals_.ends.reserve(layout->readLengths.size());
    uint64_t end = 0;
    for (const uint32_t length : layout->readLengths) {
        end += length;
        quals_.ends.push_back(end);
    }
    qualityChars_.reset(new char[static_cast<size_t>(end)]);
    quals_.data = qualityChars_.get();
    qualityAlphabet_ = std::move(layout->alphabet);
    qualityBlocks_ = std::vector<QualityBlock>(layout->blocks.size());
    uint64_t first = 0;
    for (size_t b = 0; b < qualityBlocks_.size(); b++) {
        const QualityBlockExtent &block = layout->blocks[b];
        qualityBlocks_[b].firstChar = first;
        qualityBlocks_[b].chars = block.chars;
        qualityBlocks_[b].offset = extent.offset + block.offset;
        qualityBlocks_[b].size = block.size;
        first += block.chars;
    }
    return Status();
}

std::pair<size_t, size_t>
SageDecoder::qualityBlockSpan(size_t first_chunk, size_t end_chunk) const
{
    if (qualityBlocks_.empty() || first_chunk >= end_chunk)
        return {0, 0};
    const ChunkSlice &last = chunks_[end_chunk - 1];
    const uint64_t begin = quals_.begin(chunks_[first_chunk].firstRead);
    const uint64_t end = quals_.begin(last.firstRead + last.readCount);
    if (begin == end)
        return {0, 0};
    const auto first = std::partition_point(
        qualityBlocks_.begin(), qualityBlocks_.end(),
        [&](const QualityBlock &b) { return b.firstChar + b.chars <= begin; });
    const auto past = std::partition_point(
        first, qualityBlocks_.end(),
        [&](const QualityBlock &b) { return b.firstChar < end; });
    return {static_cast<size_t>(first - qualityBlocks_.begin()),
            static_cast<size_t>(past - qualityBlocks_.begin())};
}

Status
SageDecoder::tryDecodeQualityBlock(size_t index) const
{
    const QualityBlock &block = qualityBlocks_[index];
    if (block.decoded.load(std::memory_order_acquire))
        return Status();
    // Not std::call_once: whether it re-arms after a throwing callable
    // is not portable, and a failed decode must stay retryable.
    std::lock_guard<std::mutex> lock(block.mutex);
    if (block.decoded.load(std::memory_order_relaxed))
        return Status();
    try {
        std::vector<uint8_t> owned;
        const uint8_t *bytes =
            source_->view(block.offset, static_cast<size_t>(block.size));
        if (!bytes) {
            Status status = source_->tryRead(
                block.offset, static_cast<size_t>(block.size), owned);
            if (!status.ok())
                return status;
            bytes = owned.data();
        }
        decodeQualityBlockInto(qualityAlphabet_, bytes,
                               static_cast<size_t>(block.size), block.chars,
                               qualityChars_.get() + block.firstChar);
    } catch (const StatusError &err) {
        return err.status();
    } catch (const std::bad_alloc &) {
        return Status::corrupt("quality block ", index,
                               " decode exceeded the allocation limit");
    }
    block.decoded.store(true, std::memory_order_release);
    return Status();
}

uint64_t
SageDecoder::chunkReadCount(size_t chunk) const
{
    sage_assert(chunk < chunks_.size(), "chunk index out of range");
    return chunks_[chunk].readCount;
}

uint64_t
SageDecoder::chunkFirstRead(size_t chunk) const
{
    sage_assert(chunk < chunks_.size(), "chunk index out of range");
    return chunks_[chunk].firstRead;
}

std::vector<uint64_t>
SageDecoder::chunkCompressedBytes() const
{
    std::vector<uint64_t> out;
    out.reserve(chunks_.size());
    for (const ChunkSlice &slice : chunks_) {
        out.push_back(std::accumulate(slice.sizes.begin(),
                                      slice.sizes.end(), uint64_t{0}));
    }
    return out;
}

uint64_t
SageDecoder::decodeLength(BitReader &rla, BitReader &rlga) const
{
    const int64_t delta = zigzagDecode(lenCodec_->decode(rla, rlga));
    const uint64_t length = static_cast<uint64_t>(
        static_cast<int64_t>(info_.params.modalReadLength) + delta);
    // A corrupt length delta must not drive multi-gigabyte appends or
    // wrap the packed-size arithmetic downstream.
    sage_check_data(length <= (uint64_t{1} << 31), Corrupt,
                    "read length ", length, " out of range");
    return length;
}

bool
SageDecoder::decodeOriented(ChunkCursor &cur, std::string &bases) const
{
    const SageParams &params = info_.params;
    bases.clear();

    // ---- Flags --------------------------------------------------------
    const bool reverse = cur.flags.readBit();
    unsigned extra_segments = 0;
    if (params.maxSegments > 1) {
        extra_segments = cur.flags.readUnary();
        sage_check_data(extra_segments < params.maxSegments, Corrupt,
                        "segment count ", extra_segments + 1,
                        " exceeds maxSegments ",
                        unsigned(params.maxSegments));
    }
    bool escaped = false;
    if (!params.cornerTrick)
        escaped = cur.flags.readBit();

    // ---- Read length ----------------------------------------------------
    const uint64_t length = params.constantReadLength
        ? params.modalReadLength : decodeLength(cur.rla, cur.rlga);

    // Escape payloads are 3-bit packed into whole bytes, so the read
    // unpacks out of the chunk's escape slice directly instead of 8
    // bits at a time. Any consensus bases already emitted for an
    // earlier segment are discarded: the escape carries the whole read.
    auto take_escape = [&] {
        const size_t packed_bytes = (length * 3 + 7) / 8;
        const size_t escape_size = cur.bytes.sizes[kChunkEscape];
        sage_check_data(packed_bytes <= escape_size &&
                        cur.escapeByte <= escape_size - packed_bytes,
                        Truncated, "escape stream underrun");
        bases.clear();
        bases.resize(static_cast<size_t>(length));
        kernels::unpack3bit(cur.bytes.data[kChunkEscape] + cur.escapeByte,
                            packed_bytes, static_cast<size_t>(length),
                            bases.data());
        cur.escapeByte += packed_bytes;
    };

    // ---- Matching position ---------------------------------------------
    const uint64_t match_field = matchCodec_->decode(cur.mpa, cur.mpga);
    const uint64_t primary = params.reorderReads
        ? cur.prevPrimary + match_field : match_field;

    if (!params.cornerTrick && escaped) {
        // Pre-O4 escape: payload only.
        take_escape();
        return false;
    }

    // ---- Segment table ---------------------------------------------------
    // maxSegments is one byte of the params stream, so the table fits
    // a fixed stack array (no per-read allocation).
    struct SegInfo { uint64_t consPos; uint64_t readLen; };
    std::array<SegInfo, 256> segs;
    sage_check_data(extra_segments < segs.size(), Corrupt,
                    "segment count ", extra_segments + 1, " out of range");
    const unsigned seg_count = 1 + extra_segments;
    segs[0].consPos = primary;
    uint64_t other_len = 0;
    for (unsigned s = 1; s <= extra_segments; s++) {
        const int64_t delta =
            zigzagDecode(segposCodec_->decode(cur.sga, cur.sgga));
        segs[s].consPos = static_cast<uint64_t>(
            static_cast<int64_t>(primary) + delta);
        segs[s].readLen = seglenCodec_->decode(cur.sga, cur.sgga);
        other_len += segs[s].readLen;
    }
    sage_check_data(other_len <= length, Corrupt,
                    "segment lengths exceed the read length");
    segs[0].readLen = length - other_len;

    // ---- Events + reconstruction (the RCU walk) --------------------------
    bases.reserve(static_cast<size_t>(
        std::min(length, kMaxBasesReserveBytes)));
    bool first_event_of_read = true;

    for (unsigned s = 0; s < seg_count; s++) {
        const SegInfo &seg = segs[s];
        const uint64_t count = countCodec_->decode(cur.mca, cur.mcga);
        uint64_t cons_j = seg.consPos;
        uint64_t read_i = 0;   // Position within this segment.
        uint32_t prev_pos = 0;

        for (uint64_t e = 0; e < count; e++) {
            const uint64_t delta = posCodec_->decode(cur.mmpa,
                                                     cur.mmpga);
            const uint64_t event_pos = e == 0 ? delta : prev_pos + delta;
            prev_pos = static_cast<uint32_t>(event_pos);

            // Corner-case disambiguation (paper §5.1.4): a first event
            // at position 0 carries one MBTA bit.
            if (params.cornerTrick && first_event_of_read &&
                event_pos == 0) {
                first_event_of_read = false;
                if (cur.mbta.readBit()) {
                    // Corner case: whole read comes from the escape
                    // stream, 3-bit packed.
                    take_escape();
                    return false;
                }
            }
            first_event_of_read = false;

            // Copy the consensus run up to the event position.
            if (read_i < event_pos) {
                const uint64_t run = event_pos - read_i;
                sage_check_data(run <= consensus_.size() &&
                                cons_j <= consensus_.size() - run,
                                Corrupt, "decoder ran off consensus");
                bases.append(consensus_, static_cast<size_t>(cons_j),
                             static_cast<size_t>(run));
                cons_j += run;
                read_i = event_pos;
            }

            sage_check_data(!consensus_.empty(), Corrupt,
                            "mismatch event against an empty consensus");
            const uint64_t marker_j =
                std::min<uint64_t>(cons_j, consensus_.size() - 1);

            EditType type;
            char sub_base = 0;
            if (params.inferTypes) {
                const uint8_t code =
                    static_cast<uint8_t>(cur.mbta.readBits(2));
                const char base = codeToBase(code);
                if (base != consensus_[marker_j]) {
                    type = EditType::Sub;
                    sub_base = base;
                } else {
                    type = cur.mbta.readBit() ? EditType::Ins
                                              : EditType::Del;
                }
            } else {
                type = static_cast<EditType>(cur.mbta.readBits(2));
                if (type == EditType::Sub) {
                    sub_base = codeToBase(
                        static_cast<uint8_t>(cur.mbta.readBits(2)));
                }
            }

            uint64_t block_len = 1;
            if (type != EditType::Sub && params.tuneArrays) {
                const bool single = cur.mmpga.readBit();
                if (!single) {
                    block_len = 0;
                    uint64_t chunk;
                    do {
                        chunk = cur.mmpa.readBits(8);
                        block_len += chunk;
                    } while (chunk == 255);
                }
            }

            switch (type) {
              case EditType::Sub:
                bases.push_back(sub_base);
                read_i++;
                cons_j++;
                break;
              case EditType::Ins:
                // Inserted bases follow in MBTA in both layouts: after
                // the indel marker (inferTypes) or after the explicit
                // type code (pre-O3).
                for (uint64_t b = 0; b < block_len; b++) {
                    bases.push_back(codeToBase(
                        static_cast<uint8_t>(cur.mbta.readBits(2))));
                }
                read_i += block_len;
                break;
              case EditType::Del:
                cons_j += block_len;
                break;
            }
        }
        // Copy the segment's tail in one run.
        if (read_i < seg.readLen) {
            const uint64_t run = seg.readLen - read_i;
            sage_check_data(run <= consensus_.size() &&
                            cons_j <= consensus_.size() - run,
                            Corrupt, "decoder ran off consensus at tail");
            bases.append(consensus_, static_cast<size_t>(cons_j),
                         static_cast<size_t>(run));
        }
    }

    cur.prevPrimary = primary;
    return reverse;
}

uint64_t
SageDecoder::measureBases(const ChunkCursor &cur, uint64_t reads,
                          uint64_t &max_length) const
{
    const SageParams &params = info_.params;
    if (params.constantReadLength) {
        max_length = reads == 0 ? 0 : params.modalReadLength;
        return reads * params.modalReadLength;
    }
    // The length stream is independent of every other stream, so
    // private copies of its readers walk it ahead of the decode.
    BitReader rla = cur.rla, rlga = cur.rlga;
    uint64_t total = 0;
    max_length = 0;
    for (uint64_t r = 0; r < reads; r++) {
        const uint64_t length = decodeLength(rla, rlga);
        total += length;
        max_length = std::max(max_length, length);
    }
    return total;
}

StatusOr<ReadBatch>
SageDecoder::tryDecodeChunkShared(size_t chunk) const
{
    if (chunk >= chunks_.size()) {
        return Status::outOfRange("chunk index ", chunk,
                                  " out of range (archive has ",
                                  chunks_.size(), " chunks)");
    }
    const ChunkSlice &slice = chunks_[chunk];
    const auto [first_block, past_block] =
        qualityBlockSpan(chunk, chunk + 1);
    for (size_t b = first_block; b < past_block; b++) {
        Status status = tryDecodeQualityBlock(b);
        if (!status.ok())
            return status;
    }
    // The fetch goes through the non-fatal source path so a failing
    // disk reports IoError here instead of killing the process; decode
    // errors on corrupt bytes surface as StatusError from the bit
    // readers and bounds checks in decodeOriented.
    StatusOr<ChunkBytes> bytes = tryFetchChunkBytes(slice);
    if (!bytes.ok())
        return bytes.status();
    try {
        // A private cursor: nothing here writes decoder state, which
        // is what makes concurrent calls safe.
        ChunkCursor cur(std::move(bytes.value()));

        // Size the batch exactly before decoding: the host fields are
        // resident now, and a pre-pass over the length stream
        // gives every read's base count.
        uint64_t host_bytes = 0;
        for (uint64_t r = 0; r < slice.readCount; r++) {
            host_bytes += headers_.at(slice.firstRead + r).size() +
                quals_.at(slice.firstRead + r).size();
        }
        uint64_t max_length = 0;
        const uint64_t base_bytes =
            measureBases(cur, slice.readCount, max_length);
        ReadBatch batch;
        batch.reserve(static_cast<size_t>(slice.readCount),
                      std::min(host_bytes + base_bytes,
                               kMaxBatchReserveBytes));

        // Each read decodes into one reused scratch string and is
        // copied (or reverse-complemented) straight into its arena
        // slot, so the chunk costs a constant number of allocations.
        std::string scratch;
        scratch.reserve(static_cast<size_t>(
            std::min(max_length, kMaxBasesReserveBytes)));
        for (uint64_t r = 0; r < slice.readCount; r++) {
            const uint64_t index = slice.firstRead + r;
            const bool reverse = decodeOriented(cur, scratch);
            char *slot = batch.append(headers_.at(index), scratch.size(),
                                      quals_.at(index));
            if (scratch.empty())
                continue;
            if (reverse)
                kernels::reverseComplement(scratch.data(), scratch.size(),
                                           slot);
            else
                std::memcpy(slot, scratch.data(), scratch.size());
        }
        batch.shrinkToFit();
        return StatusOr<ReadBatch>(std::move(batch));
    } catch (const StatusError &err) {
        return err.status();
    } catch (const std::bad_alloc &) {
        return Status::corrupt("chunk ", chunk,
                               " decode exceeded the allocation limit");
    } catch (const std::length_error &) {
        return Status::corrupt("chunk ", chunk,
                               " decode exceeded the allocation limit");
    }
}

uint64_t
SageDecoder::workingSetBytes() const
{
    // The software decoder keeps the consensus resident plus one
    // chunk's stream cursors; the paper's hardware needs only registers
    // (Table 3 lists 128 B for SAGe): byte-sized array registers, the
    // 150-bp reconstruction register and two 64-bit double-buffer
    // registers.
    return consensus_.size() + sizeof(ChunkCursor);
}

} // namespace sage
