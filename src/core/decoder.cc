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
#include "util/thread_pool.hh"
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

/** Host-stream field of stored-order read @p index (empty when the
 *  stream was skipped or does not cover the read). */
std::string_view
hostField(const std::vector<std::string> &stream, uint64_t index)
{
    return index < stream.size() ? std::string_view(stream[index])
                                 : std::string_view();
}

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
    ChunkCursor(const ChunkSlice &slice, ChunkBytes &&fetched)
        : bytes(std::move(fetched)), remaining(slice.readCount)
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
    uint64_t remaining;
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

SageDecoder::~SageDecoder()
{
    // An in-flight prefetch task references this decoder; wait it out.
    std::unique_lock<std::mutex> lock(prefetchMutex_);
    prefetchCv_.wait(lock, [&] {
        return prefetchState_ != PrefetchState::InFlight;
    });
}

void
SageDecoder::setPrefetchPool(ThreadPool *pool)
{
    std::unique_lock<std::mutex> lock(prefetchMutex_);
    prefetchCv_.wait(lock, [&] {
        return prefetchState_ != PrefetchState::InFlight;
    });
    prefetchState_ = PrefetchState::Idle;
    prefetchBytes_ = ChunkBytes{};
    prefetchPool_ = pool;
}

size_t
SageDecoder::planChunkFetch(const ChunkSlice &slice, ChunkBytes &bytes,
                            FetchExtents &fetch) const
{
    // Zero-copy views where the source provides them; everything else
    // lands in one owned buffer through one batched read (FileSource
    // coalesces the slices into preadv calls).
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
    size_t fetches = 0, at = 0;
    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        if (bytes.sizes[s] == 0 || bytes.data[s])
            continue;
        uint8_t *dst = bytes.owned.data() + at;
        bytes.data[s] = dst;
        fetch[fetches++] = {offsets[s], dst, bytes.sizes[s]};
        at += bytes.sizes[s];
    }
    return fetches;
}

StatusOr<SageDecoder::ChunkBytes>
SageDecoder::tryFetchChunkBytes(const ChunkSlice &slice) const
{
    ChunkBytes bytes;
    FetchExtents fetch;
    const size_t fetches = planChunkFetch(slice, bytes, fetch);
    if (fetches > 0) {
        Status status = source_->tryReadBatch(fetch.data(), fetches);
        if (!status.ok())
            return status;
    }
    return StatusOr<ChunkBytes>(std::move(bytes));
}

SageDecoder::ChunkBytes
SageDecoder::fetchChunkBytes(const ChunkSlice &slice) const
{
    ChunkBytes bytes;
    FetchExtents fetch;
    const size_t fetches = planChunkFetch(slice, bytes, fetch);
    if (fetches > 0)
        source_->readBatch(fetch.data(), fetches);
    return bytes;
}

void
SageDecoder::startPrefetch(size_t chunk)
{
    {
        std::lock_guard<std::mutex> lock(prefetchMutex_);
        // The slot can still be busy with a speculation a random
        // access abandoned; never stack fetches behind it.
        if (prefetchState_ != PrefetchState::Idle)
            return;
        prefetchState_ = PrefetchState::InFlight;
        prefetchChunk_ = chunk;
    }
    prefetchPool_->submit([this, chunk] {
        ChunkBytes bytes = fetchChunkBytes(chunks_[chunk]);
        std::lock_guard<std::mutex> lock(prefetchMutex_);
        prefetchBytes_ = std::move(bytes);
        prefetchState_ = PrefetchState::Ready;
        prefetchCv_.notify_all();
    });
}

bool
SageDecoder::takePrefetched(size_t chunk, ChunkBytes &out)
{
    std::unique_lock<std::mutex> lock(prefetchMutex_);
    // Wait only for a fetch of the chunk we want; an in-flight fetch
    // of some other chunk means a random access jumped past the
    // speculation — fetch inline instead of blocking behind it (its
    // stale payload is discarded by a later take).
    prefetchCv_.wait(lock, [&] {
        return prefetchState_ != PrefetchState::InFlight ||
            prefetchChunk_ != chunk;
    });
    if (prefetchState_ == PrefetchState::InFlight)
        return false;
    const bool hit =
        prefetchState_ == PrefetchState::Ready && prefetchChunk_ == chunk;
    if (hit)
        out = std::move(prefetchBytes_);
    prefetchBytes_ = ChunkBytes{};
    prefetchState_ = PrefetchState::Idle;
    return hit;
}

std::unique_ptr<SageDecoder::ChunkCursor>
SageDecoder::openChunk(size_t index)
{
    if (!prefetchPool_)
        return std::make_unique<ChunkCursor>(
            chunks_[index], fetchChunkBytes(chunks_[index]));

    // Double buffering: adopt the slices fetched behind chunk index-1
    // (or fetch in line on a miss — first chunk, or a range jump),
    // then put the slot to work on chunk index+1 while the caller
    // decodes this one. Speculate only while the walk looks
    // sequential (first open, successor of the last open, or a
    // prefetch hit): scattered random access would otherwise pay a
    // wasted full-chunk fetch per open.
    ChunkBytes bytes;
    const bool hit = takePrefetched(index, bytes);
    if (!hit)
        bytes = fetchChunkBytes(chunks_[index]);
    const bool sequential = hit ||
        lastOpenedChunk_ == SIZE_MAX ||
        index == lastOpenedChunk_ + 1;
    lastOpenedChunk_ = index;
    if (sequential && index + 1 < chunks_.size())
        startPrefetch(index + 1);
    return std::make_unique<ChunkCursor>(chunks_[index],
                                         std::move(bytes));
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

    // Host-side streams (skipped entirely in DNA-only mode).
    if (!dna_only) {
        status = dir_.tryLoad(*source_, "headers", raw);
        if (!status.ok())
            return status;
        StatusOr<std::vector<uint8_t>> headers = gpzip::tryDecompress(raw);
        if (!headers.ok())
            return headers.status();
        const std::vector<uint8_t> &header_bytes = headers.value();
        std::string cur;
        for (uint8_t byte : header_bytes) {
            if (byte == '\n') {
                headers_.push_back(cur);
                cur.clear();
            } else {
                cur.push_back(static_cast<char>(byte));
            }
        }
    }
    if (dir_.has("order")) {
        status = dir_.tryLoad(*source_, "order", raw);
        if (!status.ok())
            return status;
        size_t pos = 0;
        while (pos < raw.size())
            order_.push_back(static_cast<uint32_t>(getVarint(raw, pos)));
    }
    if (!dna_only && params.hasQuality && dir_.has("quality")) {
        status = dir_.tryLoad(*source_, "quality", raw);
        if (!status.ok())
            return status;
        const std::vector<uint8_t> &packed = raw;
        QualityArchive qa;
        size_t pos = 0;
        const uint64_t alpha_len = getVarint(packed, pos);
        sage_check_data(alpha_len <= packed.size() - pos, Truncated,
                        "quality alphabet runs past the stream end");
        qa.alphabet.assign(packed.begin() + pos,
                           packed.begin() + pos + alpha_len);
        pos += alpha_len;
        const uint64_t reads = getVarint(packed, pos);
        for (uint64_t i = 0; i < reads; i++)
            qa.readLengths.push_back(
                static_cast<uint32_t>(getVarint(packed, pos)));
        const uint64_t blocks = getVarint(packed, pos);
        for (uint64_t b = 0; b < blocks; b++) {
            qa.blockChars.push_back(getVarint(packed, pos));
            const uint64_t size = getVarint(packed, pos);
            sage_check_data(size <= packed.size() - pos, Truncated,
                            "quality block runs past the stream end");
            qa.blocks.emplace_back(packed.begin() + pos,
                                   packed.begin() + pos + size);
            pos += size;
        }
        quals_ = decompressQuality(qa);
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

Read
SageDecoder::decodeOne(ChunkCursor &cur, uint64_t read_index,
                       uint64_t &events, bool consume_host)
{
    Read read;
    // On the one-shot paths headers and quality strings are emitted
    // exactly once per read, so they move out of the decoder; random
    // chunk access copies so a chunk can be decoded repeatedly.
    if (read_index < headers_.size()) {
        read.header = consume_host ? std::move(headers_[read_index])
                                   : headers_[read_index];
    }
    // Reverse strands flip through the SIMD kernel without an extra
    // per-read allocation (thread-local scratch in alphabet.cc).
    if (decodeOriented(cur, events, read.bases))
        reverseComplementInPlace(read.bases);
    if (read_index < quals_.size()) {
        read.quals = consume_host ? std::move(quals_[read_index])
                                  : quals_[read_index];
    }
    return read;
}

bool
SageDecoder::decodeOriented(ChunkCursor &cur, uint64_t &events,
                            std::string &bases) const
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
            events++;

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

Read
SageDecoder::next()
{
    sage_assert(hasNext(), "decoder exhausted");
    while (!cursor_ || cursor_->remaining == 0) {
        sage_assert(nextChunk_ < chunks_.size(),
                    "chunk table exhausted before read count");
        cursor_ = openChunk(nextChunk_++);
    }
    cursor_->remaining--;
    Read read = decodeOne(*cursor_, emitted_, events_,
                          /*consume_host=*/true);
    emitted_++;
    return read;
}

bool
SageDecoder::canDecodeParallel(const ThreadPool *pool,
                               size_t count) const
{
    return pool && pool->threadCount() > 1 && count > 1;
}

// Chunks are independent slices: decode them concurrently, each worker
// fetching its own chunk's byte slices and delivering to disjoint
// stored-order indices (so stored order is preserved by construction,
// and headers/quals move out race-free on the consume paths).
template <typename Sink>
void
SageDecoder::decodeParallel(ThreadPool *pool, size_t first, size_t count,
                            bool consume_host, const Sink &sink)
{
    std::vector<uint64_t> chunk_events(count, 0);
    pool->parallelFor(count, [&](size_t i) {
        const ChunkSlice &slice = chunks_[first + i];
        ChunkCursor cur(slice, fetchChunkBytes(slice));
        for (uint64_t r = 0; r < slice.readCount; r++) {
            const uint64_t idx = slice.firstRead + r;
            sink(idx, decodeOne(cur, idx, chunk_events[i],
                                consume_host));
        }
    });
    for (uint64_t e : chunk_events)
        events_ += e;
}

ReadSet
SageDecoder::decodeChunks(size_t first, size_t count, ThreadPool *pool)
{
    sage_assert(first <= chunks_.size() &&
                count <= chunks_.size() - first,
                "chunk range out of bounds");
    ReadSet rs;
    if (count == 0)
        return rs;

    const uint64_t base = chunks_[first].firstRead;
    const ChunkSlice &last = chunks_[first + count - 1];
    rs.reads.resize(
        static_cast<size_t>(last.firstRead + last.readCount - base));

    if (canDecodeParallel(pool, count)) {
        decodeParallel(pool, first, count, /*consume_host=*/false,
                       [&](uint64_t idx, Read &&read) {
                           rs.reads[idx - base] = std::move(read);
                       });
    } else {
        for (size_t c = first; c < first + count; c++) {
            const ChunkSlice &slice = chunks_[c];
            const std::unique_ptr<ChunkCursor> cur = openChunk(c);
            for (uint64_t r = 0; r < slice.readCount; r++) {
                const uint64_t idx = slice.firstRead + r;
                rs.reads[static_cast<size_t>(idx - base)] =
                    decodeOne(*cur, idx, events_,
                              /*consume_host=*/false);
            }
        }
    }
    return rs;
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
SageDecoder::tryDecodeChunkShared(size_t chunk)
{
    if (chunk >= chunks_.size()) {
        return Status::outOfRange("chunk index ", chunk,
                                  " out of range (archive has ",
                                  chunks_.size(), " chunks)");
    }
    const ChunkSlice &slice = chunks_[chunk];
    // The fetch goes through the non-fatal source path so a failing
    // disk reports IoError here instead of killing the process; decode
    // errors on corrupt bytes surface as StatusError from the bit
    // readers and bounds checks in decodeOriented.
    StatusOr<ChunkBytes> bytes = tryFetchChunkBytes(slice);
    if (!bytes.ok())
        return bytes.status();
    try {
        // A private cursor and a local event counter: nothing here
        // writes decoder state, which is what makes concurrent calls
        // safe.
        ChunkCursor cur(slice, std::move(bytes.value()));

        // Size the batch exactly before decoding: the host fields are
        // already resident, and a pre-pass over the length stream
        // gives every read's base count.
        uint64_t host_bytes = 0;
        for (uint64_t r = 0; r < slice.readCount; r++) {
            host_bytes += hostField(headers_, slice.firstRead + r).size() +
                hostField(quals_, slice.firstRead + r).size();
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
        uint64_t events = 0;
        for (uint64_t r = 0; r < slice.readCount; r++) {
            const uint64_t index = slice.firstRead + r;
            const bool reverse = decodeOriented(cur, events, scratch);
            char *slot = batch.append(hostField(headers_, index),
                                      scratch.size(),
                                      hostField(quals_, index));
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

ReadSet
SageDecoder::decodeAll(ThreadPool *pool)
{
    ReadSet rs;
    const uint64_t total = info_.params.numReads;

    if (emitted_ == 0 && canDecodeParallel(pool, chunks_.size())) {
        rs.reads.resize(total);
        decodeParallel(pool, 0, chunks_.size(), /*consume_host=*/true,
                       [&](uint64_t idx, Read &&read) {
                           rs.reads[idx] = std::move(read);
                       });
        emitted_ = total;
    } else {
        rs.reads.reserve(total - emitted_);
        while (hasNext())
            rs.reads.push_back(next());
    }

    if (!order_.empty()) {
        std::vector<Read> restored(rs.reads.size());
        for (size_t i = 0; i < rs.reads.size(); i++) {
            sage_assert(order_[i] < restored.size(), "bad order index");
            restored[order_[i]] = std::move(rs.reads[i]);
        }
        rs.reads = std::move(restored);
    }
    return rs;
}

std::vector<std::vector<uint8_t>>
SageDecoder::decodeAllPacked(OutputFormat fmt, ThreadPool *pool)
{
    auto pack = [fmt](const Read &read) {
        const OutputFormat effective =
            fmt == OutputFormat::TwoBit && !isAcgtOnly(read.bases)
                ? OutputFormat::ThreeBit : fmt;
        return packSequence(read.bases, effective);
    };

    std::vector<std::vector<uint8_t>> out;
    const uint64_t total = info_.params.numReads;

    if (emitted_ == 0 && canDecodeParallel(pool, chunks_.size())) {
        out.resize(total);
        decodeParallel(pool, 0, chunks_.size(), /*consume_host=*/true,
                       [&](uint64_t idx, Read &&read) {
                           out[idx] = pack(read);
                       });
        emitted_ = total;
    } else {
        out.reserve(total - emitted_);
        while (hasNext())
            out.push_back(pack(next()));
    }
    return out;
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

ReadSet
sageDecompress(const std::vector<uint8_t> &archive)
{
    SageDecoder decoder(archive);
    return decoder.decodeAll();
}

} // namespace sage
