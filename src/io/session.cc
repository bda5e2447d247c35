#include "io/session.hh"

#include <algorithm>
#include <condition_variable>
#include <iterator>
#include <mutex>

#include "compress/streams.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace sage {

SageWriter::SageWriter(ByteSink &sink, SageConfig config)
    : sink_(&sink), config_(config)
{
    requireValidQualityConfig(config_.quality);
}

SageWriter::SageWriter(const std::string &path, SageConfig config)
    : config_(config)
{
    // Checked before the file is created or truncated.
    requireValidQualityConfig(config_.quality);
    file_ = std::make_unique<FileSink>(path);
    sink_ = file_.get();
}

SageWriter::~SageWriter() = default;

void
SageWriter::add(Read read)
{
    sage_assert(!finished_, "add() after finish()");
    pending_.reads.push_back(std::move(read));
}

void
SageWriter::add(const ReadSet &rs)
{
    sage_assert(!finished_, "add() after finish()");
    pending_.reads.insert(pending_.reads.end(), rs.reads.begin(),
                          rs.reads.end());
    if (pending_.name.empty())
        pending_.name = rs.name;
}

void
SageWriter::add(ReadSet &&rs)
{
    sage_assert(!finished_, "add() after finish()");
    if (pending_.reads.empty()) {
        pending_ = std::move(rs);
        return;
    }
    pending_.reads.insert(
        pending_.reads.end(),
        std::make_move_iterator(rs.reads.begin()),
        std::make_move_iterator(rs.reads.end()));
}

SageWriteStats
SageWriter::finish(std::string_view consensus, ThreadPool *pool)
{
    sage_assert(!finished_, "finish() called twice");
    finished_ = true;

    StreamBundle bundle;
    const SageArchive accounting =
        sageEncodeToBundle(pending_, consensus, config_, pool, bundle);
    pending_ = ReadSet{};

    SageWriteStats stats;
    stats.archiveBytes = bundle.writeTo(*sink_);
    sink_->flush();
    stats.streamSizes = accounting.streamSizes;
    stats.mapSeconds = accounting.mapSeconds;
    stats.encodeSeconds = accounting.encodeSeconds;
    stats.tuneSeconds = accounting.tuneSeconds;
    stats.dnaBytes = accounting.dnaBytes;
    stats.qualityBytes = accounting.qualityBytes;
    stats.metaBytes = accounting.metaBytes;
    return stats;
}

SageReader::SageReader(const ByteSource &source,
                       SageReaderOptions options)
    : source_(&source),
      decoder_(std::make_unique<SageDecoder>(source, options.dnaOnly,
                                             options.verifyChecksum))
{
    enablePrefetch(options);
}

SageReader::SageReader(const std::string &path, SageReaderOptions options)
    : file_(std::make_unique<FileSource>(path)), source_(file_.get()),
      decoder_(std::make_unique<SageDecoder>(*file_, options.dnaOnly,
                                             options.verifyChecksum))
{
    enablePrefetch(options);
}

SageReader::~SageReader()
{
    dropAhead();
}

Status
SageReader::verify() const
{
    return verifyArchiveChecksumStatus(*source_);
}

void
SageReader::enablePrefetch(const SageReaderOptions &options)
{
    if (!options.prefetch)
        return;
    prefetchPool_ = options.prefetchPool;
    if (!prefetchPool_) {
        ownedPrefetchPool_ = std::make_unique<ThreadPool>(1);
        prefetchPool_ = ownedPrefetchPool_.get();
    }
}

ReadBatch
SageReader::checked(size_t chunk, StatusOr<ReadBatch> batch) const
{
    if (!batch.ok()) {
        sage_fatal(source_->describe(), ": chunk ", chunk, ": ",
                   batch.status().toString());
    }
    return std::move(batch.value());
}

void
SageReader::dropAhead()
{
    // The task uses the decoder: it may not outlive the reader (or run
    // on into a fatal exit).
    if (ahead_.valid())
        ahead_.wait();
    ahead_ = {};
}

ReadBatch
SageReader::walkChunk(size_t chunk, size_t end)
{
    std::future<StatusOr<ReadBatch>> mine;
    if (ahead_.valid() && aheadChunk_ == chunk)
        mine = std::move(ahead_);
    else
        dropAhead();  // None, or one a jump in the walk left behind.
    if (prefetchPool_ && chunk + 1 < end) {
        auto task =
            std::make_shared<std::packaged_task<StatusOr<ReadBatch>()>>(
                [decoder = decoder_.get(), next = chunk + 1] {
                    return decoder->tryDecodeChunkShared(next);
                });
        ahead_ = task->get_future();
        aheadChunk_ = chunk + 1;
        prefetchPool_->submit([task] { (*task)(); });
    }
    StatusOr<ReadBatch> batch = mine.valid()
        ? mine.get() : decoder_->tryDecodeChunkShared(chunk);
    if (!batch.ok())
        dropAhead();
    return checked(chunk, std::move(batch));
}

void
SageReader::forEachChunk(size_t first, size_t end, ThreadPool *pool,
                         const ChunkFn &fn)
{
    const size_t count = end - first;
    const size_t lanes = pool ? std::min(pool->threadCount(), count) : 0;
    if (lanes < 2) {
        for (size_t c = first; c < end; c++)
            fn(c, walkChunk(c, end));
        return;
    }
    // The range's quality blocks go first, one task each: adjacent
    // chunks share a block, so lanes left to decode it themselves
    // would queue on its lock one behind the other. A failure here is
    // not lost: the chunk that needs the block retries it and reports.
    const auto [first_block, past_block] =
        decoder_->qualityBlockSpan(first, end);
    for (size_t b = first_block; b < past_block; b++)
        pool->submit([this, b] { (void)decoder_->tryDecodeQualityBlock(b); });
    // Lane k decodes chunks k, k + lanes, ... of the range, each only
    // once this thread has consumed (and freed) the lane's previous
    // one: a worker holds one batch at a time, which keeps its malloc
    // arena one batch deep. fn runs here, in chunk order.
    std::vector<std::promise<StatusOr<ReadBatch>>> decoded(count);
    std::vector<std::future<StatusOr<ReadBatch>>> ready;
    for (auto &promise : decoded)
        ready.push_back(promise.get_future());
    std::mutex mutex;
    std::condition_variable freed;
    size_t consumed = 0;  // Chunks of the range done with; by mutex.
    for (size_t k = 0; k < lanes; k++) {
        pool->submit([&, k] {
            for (size_t i = k; i < count; i += lanes) {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    freed.wait(lock, [&] { return i < consumed + lanes; });
                }
                decoded[i].set_value(
                    decoder_->tryDecodeChunkShared(first + i));
            }
        });
    }
    const auto consume = [&](size_t i) {
        StatusOr<ReadBatch> batch = ready[i].get();
        if (batch.ok())
            fn(first + i, batch.value());
        return batch.status();
    };
    const auto release = [&](size_t done) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            consumed = done;
        }
        freed.notify_all();
    };
    // The lanes use this frame: every way out joins them first.
    try {
        for (size_t i = 0; i < count; i++) {
            const Status status = consume(i);
            release(status.ok() ? i + 1 : count);
            if (!status.ok()) {
                pool->wait();
                checked(first + i, status);  // Fatal: does not return.
            }
        }
    } catch (...) {
        release(count);
        pool->wait();
        throw;
    }
    pool->wait();
}

std::vector<Read>
SageReader::readChunk(size_t chunk) const
{
    const ReadBatch batch =
        checked(chunk, decoder_->tryDecodeChunkShared(chunk));
    std::vector<Read> reads;
    reads.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); i++)
        reads.push_back(batch.read(i));
    return reads;
}

ReadSet
SageReader::decodeRange(size_t first_chunk, size_t chunk_count,
                        ThreadPool *pool)
{
    sage_assert(first_chunk <= chunkCount() &&
                chunk_count <= chunkCount() - first_chunk,
                "chunk range out of bounds");
    ReadSet rs;
    if (chunk_count == 0)
        return rs;
    const size_t end = first_chunk + chunk_count;
    const uint64_t base = chunkFirstRead(first_chunk);
    rs.reads.resize(static_cast<size_t>(
        chunkFirstRead(end - 1) + chunkReadCount(end - 1) - base));
    forEachChunk(first_chunk, end, pool,
                 [&](size_t chunk, const ReadBatch &batch) {
                     Read *out =
                         rs.reads.data() + (chunkFirstRead(chunk) - base);
                     for (size_t i = 0; i < batch.size(); i++)
                         out[i] = batch.read(i);
                 });
    return rs;
}

Read
SageReader::next()
{
    sage_assert(hasNext(), "reader exhausted");
    while (batchRead_ == batch_.size()) {
        batch_ = walkChunk(nextChunk_++, chunkCount());
        batchRead_ = 0;
    }
    emitted_++;
    return batch_.read(batchRead_++);
}

ReadSet
SageReader::decodeAll(ThreadPool *pool)
{
    // Stored order, or through the preserved-order permutation (the
    // decoder checked at open that it is one).
    const std::vector<uint32_t> &order = decoder_->order();
    ReadSet rs;
    rs.reads.resize(static_cast<size_t>(readCount()));
    forEachChunk(0, chunkCount(), pool,
                 [&](size_t chunk, const ReadBatch &batch) {
                     const uint64_t first = chunkFirstRead(chunk);
                     for (size_t i = 0; i < batch.size(); i++) {
                         const uint64_t stored = first + i;
                         rs.reads[order.empty() ? stored
                                                : order[stored]] =
                             batch.read(i);
                     }
                 });
    return rs;
}

std::vector<std::vector<uint8_t>>
SageReader::decodeAllPacked(OutputFormat fmt, ThreadPool *pool)
{
    std::vector<std::vector<uint8_t>> out(
        static_cast<size_t>(readCount()));
    forEachChunk(0, chunkCount(), pool,
                 [&](size_t chunk, const ReadBatch &batch) {
                     const uint64_t first = chunkFirstRead(chunk);
                     for (size_t i = 0; i < batch.size(); i++) {
                         const std::string_view bases = batch.bases(i);
                         out[first + i] = packSequence(
                             bases, fmt == OutputFormat::TwoBit &&
                                     !isAcgtOnly(bases)
                                 ? OutputFormat::ThreeBit : fmt);
                     }
                 });
    return out;
}

ReadSet
sageDecompress(const std::vector<uint8_t> &archive)
{
    const MemorySource source(archive);
    SageReaderOptions options;
    options.verifyChecksum = true;
    return SageReader(source, options).decodeAll();
}

} // namespace sage
