#include "service/service.hh"

#include <algorithm>
#include <exception>
#include <future>
#include <utility>

#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"

namespace sage {

uint64_t
SpanResult::readCount() const
{
    uint64_t reads = 0;
    for (const ReadSpan &span : spans)
        reads += span.count;
    return reads;
}

uint64_t
SpanResult::payloadBytes() const
{
    uint64_t bytes = 0;
    for (const ReadSpan &span : spans)
        bytes += span.payloadBytes();
    return bytes;
}

ReadResult
materialize(const SpanResult &result)
{
    ReadResult out;
    out.status = result.status;
    out.error = result.error;
    out.reads.reserve(static_cast<size_t>(result.readCount()));
    for (const ReadSpan &span : result.spans)
        span.materialize(out.reads);
    return out;
}

// ---------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------

namespace {

/** The source and path constructors' edge: open through
 *  SageDecoder::tryOpen, or die naming the source and the Status. */
std::unique_ptr<SageDecoder>
openOrDie(const ByteSource &source, bool dna_only)
{
    StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source, dna_only);
    if (!opened.ok())
        sage_fatal(source.describe(), ": ", opened.status().toString());
    return std::move(opened.value());
}

} // namespace

SageArchiveService::SageArchiveService(const ByteSource &source,
                                       ServiceOptions options)
    : decoder_(openOrDie(source, options.dnaOnly)),
      options_(options),
      pool_(options.pool),
      cache_(options.cacheBudgetBytes, options.cacheShards)
{
    init();
}

SageArchiveService::SageArchiveService(const std::string &path,
                                       ServiceOptions options)
    : file_(std::make_unique<FileSource>(path)),
      decoder_(openOrDie(*file_, options.dnaOnly)),
      options_(options),
      pool_(options.pool),
      cache_(options.cacheBudgetBytes, options.cacheShards)
{
    init();
}

SageArchiveService::SageArchiveService(
    std::unique_ptr<SageDecoder> decoder,
    std::unique_ptr<ByteSource> owned_source, ServiceOptions options)
    : file_(std::move(owned_source)),
      decoder_(std::move(decoder)),
      options_(options),
      pool_(options.pool),
      cache_(options.cacheBudgetBytes, options.cacheShards)
{
    sage_assert(decoder_ != nullptr,
                "service constructed without a decoder");
    init();
}

void
SageArchiveService::init()
{
    if (!pool_) {
        ownedPool_ =
            std::make_unique<ThreadPool>(options_.ownedPoolThreads);
        pool_ = ownedPool_.get();
    }
    chunkFirstRead_.reserve(decoder_->chunkCount());
    for (size_t c = 0; c < decoder_->chunkCount(); c++)
        chunkFirstRead_.push_back(decoder_->chunkFirstRead(c));
}

SageArchiveService::~SageArchiveService()
{
    // Drain: every enqueued request holds a reference to this service,
    // so teardown must wait until the last one has left runOne().
    std::unique_lock<std::mutex> lock(schedMutex_);
    schedIdle_.wait(lock,
                    [&] { return queued_ == 0 && executing_ == 0; });
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

void
SageArchiveService::enqueue(RequestPriority priority,
                            std::function<void()> work)
{
    {
        std::lock_guard<std::mutex> lock(schedMutex_);
        queues_[static_cast<size_t>(priority)].push_back(
            std::move(work));
        // queued_/maxQueueDepth_ are written only under schedMutex_;
        // the atomics exist for queueDepth()'s lock-free readers, so
        // relaxed ordering suffices on this side too.
        const uint64_t depth =
            queued_.load(std::memory_order_relaxed) + 1;
        queued_.store(depth, std::memory_order_relaxed);
        if (depth > maxQueueDepth_.load(std::memory_order_relaxed))
            maxQueueDepth_.store(depth, std::memory_order_relaxed);
    }
    // The pool task is a generic "run the best queued request"
    // trampoline: the pool drains FIFO, but each trampoline re-picks
    // the highest-priority request at execution time, so Interactive
    // requests overtake queued Background work while equal priorities
    // keep arrival order.
    pool_->submit([this] { runOne(); });
}

void
SageArchiveService::runOne()
{
    std::function<void()> work;
    {
        std::lock_guard<std::mutex> lock(schedMutex_);
        for (auto &queue : queues_) {
            if (!queue.empty()) {
                work = std::move(queue.front());
                queue.pop_front();
                break;
            }
        }
        sage_assert(work != nullptr,
                    "scheduler trampoline found no queued request");
        queued_.store(queued_.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
        executing_++;
    }
    // A throwing request (std::bad_alloc while assembling reads) must
    // not unwind past the executing_ decrement below: the destructor's
    // drain would wait on it forever. Request failure is fatal.
    try {
        work();
    } catch (const std::exception &error) {
        sage_fatal("service request failed with exception: ",
                   error.what());
    }
    {
        // Notify under the lock: once the destructor's drain wakes and
        // takes the mutex, this trampoline no longer touches service
        // state.
        std::lock_guard<std::mutex> lock(schedMutex_);
        executing_--;
        if (queued_ == 0 && executing_ == 0)
            schedIdle_.notify_all();
    }
}

// ---------------------------------------------------------------------
// Chunk plumbing
// ---------------------------------------------------------------------

size_t
SageArchiveService::chunkForRead(uint64_t read_index) const
{
    sage_assert(read_index < readCount(), "read index ", read_index,
                " out of range (", readCount(), " reads)");
    const auto it = std::upper_bound(chunkFirstRead_.begin(),
                                     chunkFirstRead_.end(), read_index);
    return static_cast<size_t>(it - chunkFirstRead_.begin()) - 1;
}

StatusOr<ReadBatch>
SageArchiveService::decodeChunkWithRetry(size_t chunk)
{
    for (unsigned attempt = 0;; attempt++) {
        StatusOr<ReadBatch> reads = decoder_->tryDecodeChunkShared(chunk);
        if (reads.ok())
            return reads;
        // Only plain I/O errors are worth retrying: a flaky device
        // may serve the same bytes fine a moment later. Corrupt or
        // truncated data is deterministic, and Exhausted means the
        // source already burned its own retry budget.
        if (reads.status().code() == StatusCode::IoError &&
            attempt < options_.decodeRetries) {
            std::lock_guard<std::mutex> lock(statsMutex_);
            retries_++;
            continue;
        }
        recordChunkError(reads.status());
        return reads;
    }
}

void
SageArchiveService::recordChunkError(const Status &status)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    switch (status.code()) {
      case StatusCode::IoError:
      case StatusCode::Exhausted:
        ioErrors_++;
        break;
      default:
        corruptChunks_++;
        break;
    }
}

DecodedChunkPtr
SageArchiveService::fetchChunk(size_t chunk, const RequestOptions *qos,
                               Status *error)
{
    return cache_.getOrDecode(
        chunk,
        [this](size_t index) -> StatusOr<DecodedChunkPtr> {
            StatusOr<ReadBatch> batch = decodeChunkWithRetry(index);
            if (!batch.ok())
                return batch.status();
            auto decoded = std::make_shared<DecodedChunk>();
            decoded->batch = std::move(batch.value());
            decoded->firstRead = decoder_->chunkFirstRead(index);
            decoded->bytes = DecodedChunk::residentBytes(decoded->batch);
            return DecodedChunkPtr(std::move(decoded));
        },
        qos, error);
}

DecodedChunkPtr
SageArchiveService::fetchChunkForSession(size_t chunk,
                                         const RequestOptions *qos,
                                         Status *error)
{
    DecodedChunkPtr data = fetchChunk(chunk, qos, error);
    // Speculate the client's next sequential chunk into the cache as
    // Background work — the serving-layer analogue of the reader's
    // prefetch-next-chunk mode, but per client and deduplicated by
    // the cache's single-flight machinery. Pointless without a
    // retaining cache (the warm's decode would be evicted on insert
    // and re-done when the session arrives), so a zero budget
    // disables speculation.
    if (data && cache_.budgetBytes() > 0 &&
        chunk + 1 < chunkCount() && !cache_.contains(chunk + 1)) {
        warmChunk(chunk + 1);
    }
    return data;
}

SpanResult
SageArchiveService::assembleRange(uint64_t first_read, uint64_t count,
                                  const RequestOptions &options)
{
    SpanResult result;
    const bool abandonable = options.abandonable();
    uint64_t pos = first_read;
    const uint64_t end = first_read + count;
    while (pos < end) {
        // The pre-decode QoS check: a chunk fetch is the expensive
        // step, so an expired/cancelled request abandons here rather
        // than decoding data nobody will consume. Partial reads are
        // dropped — the contract is all-or-status.
        if (abandonable) {
            result.status = options.checkNow();
            if (result.status != RequestStatus::Ok) {
                result.spans.clear();
                return result;
            }
        }
        Status error;
        DecodedChunkPtr chunk =
            fetchChunk(chunkForRead(pos),
                       abandonable ? &options : nullptr, &error);
        if (!chunk) {
            result.spans.clear();
            if (!error.ok()) {
                // The chunk failed to decode (I/O fault or corrupt
                // bytes). Only this request degrades: the cache kept
                // no poisoned entry and other chunks are untouched.
                result.status = RequestStatus::Error;
                result.error = error;
                return result;
            }
            // Abandoned while coalesced-waiting on another request's
            // decode; the status check is sticky, so re-reading it
            // names the reason.
            result.status = options.checkNow();
            sage_assert(result.status != RequestStatus::Ok,
                        "null chunk from a live request");
            return result;
        }
        // The span pins the chunk: the reads stay valid after the
        // cache evicts it, so nothing is copied here.
        const uint64_t chunk_end = chunk->firstRead + chunk->batch.size();
        const uint64_t take = std::min(end, chunk_end) - pos;
        const size_t begin = static_cast<size_t>(pos - chunk->firstRead);
        result.spans.push_back(
            ReadSpan{std::move(chunk), begin, static_cast<size_t>(take)});
        pos += take;
    }
    return result;
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

void
SageArchiveService::recordRequest(RequestPriority priority,
                                  RequestStatus status, double seconds,
                                  uint64_t reads, uint64_t bytes)
{
    readsServed_.fetch_add(reads, std::memory_order_relaxed);
    bytesServed_.fetch_add(bytes, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(statsMutex_);
    requests_++;
    requestsByPriority_[static_cast<size_t>(priority)]++;
    if (status == RequestStatus::Expired)
        expired_++;
    else if (status == RequestStatus::Cancelled)
        cancelled_++;
    else if (status == RequestStatus::Error)
        errored_++;
    latencyByPriority_[static_cast<size_t>(priority)].record(seconds);
}

void
SageArchiveService::submit(uint64_t first_read, uint64_t count,
                           RequestOptions options,
                           std::function<void(SpanResult)> done)
{
    sage_assert(first_read <= readCount() &&
                count <= readCount() - first_read,
                "read range [", first_read, ", ", first_read + count,
                ") exceeds the archive's ", readCount(), " reads");
    const Stopwatch clock;  // Latency includes the queue wait.
    enqueue(options.priority,
            [this, first_read, count, clock,
             options = std::move(options), done = std::move(done)] {
                // Dequeue-time QoS check: a request that sat out its
                // deadline behind a backlog (or was cancelled while
                // queued) completes immediately with its status — no
                // decode, no assembly.
                SpanResult result;
                result.status = options.checkNow();
                if (result.status == RequestStatus::Ok) {
                    result =
                        assembleRange(first_read, count, options);
                }
                recordRequest(options.priority, result.status,
                              clock.seconds(), result.readCount(),
                              result.payloadBytes());
                done(std::move(result));
            });
}

ReadResult
SageArchiveService::readRange(uint64_t first_read, uint64_t count,
                              const RequestOptions &options)
{
    // Shared, not on this stack: the worker may still be inside
    // set_value when get() returns here.
    auto promise = std::make_shared<std::promise<ReadResult>>();
    std::future<ReadResult> future = promise->get_future();
    submit(first_read, count, options, [promise](SpanResult result) {
        promise->set_value(materialize(result));
    });
    return future.get();
}

ReadResult
SageArchiveService::readChunk(size_t chunk,
                              const RequestOptions &options)
{
    sage_assert(chunk < chunkCount(), "chunk index ", chunk,
                " out of range (", chunkCount(), " chunks)");
    return readRange(decoder_->chunkFirstRead(chunk),
                     decoder_->chunkReadCount(chunk), options);
}

void
SageArchiveService::warmChunk(size_t chunk)
{
    if (chunk >= chunkCount() || cache_.contains(chunk))
        return;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        readaheadWarms_++;
    }
    const Stopwatch clock;
    enqueue(RequestPriority::Background, [this, chunk, clock] {
        // A failed warm is already classified by the decode path; the
        // request record just notes it did not complete Ok.
        Status error;
        const DecodedChunkPtr data = fetchChunk(chunk, nullptr, &error);
        recordRequest(RequestPriority::Background,
                      data ? RequestStatus::Ok : RequestStatus::Error,
                      clock.seconds(), 0, 0);
    });
}

ServiceStats
SageArchiveService::stats() const
{
    ServiceStats out;
    out.readsServed = readsServed_.load(std::memory_order_relaxed);
    out.bytesServed = bytesServed_.load(std::memory_order_relaxed);
    {
        // One atomic snapshot across both counter domains: holding
        // the scheduler and stats locks *together* means no request
        // can complete (statsMutex_) or be enqueued/dequeued
        // (schedMutex_) between the reads below, so cross-domain
        // invariants (requests == sum by priority, expired+cancelled
        // <= requests, queueDepth <= maxQueueDepth) hold in every
        // snapshot. Taking the locks one after the other — the
        // pre-QoS behavior — let a request slip between the two
        // acquisitions and skew the pair.
        std::scoped_lock lock(statsMutex_, schedMutex_);
        out.requests = requests_;
        out.requestsByPriority = requestsByPriority_;
        out.expired = expired_;
        out.cancelled = cancelled_;
        out.errored = errored_;
        out.ioErrors = ioErrors_;
        out.corruptChunks = corruptChunks_;
        out.retries = retries_;
        out.readaheadWarms = readaheadWarms_;
        for (size_t p = 0; p < kRequestPriorityCount; p++)
            out.latencyByPriority[p] = latencyByPriority_[p].summary();
        out.queueDepth = queued_;
        out.executing = executing_;
        out.maxQueueDepth = maxQueueDepth_;
    }
    out.cache = cache_.stats();
    return out;
}

// ---------------------------------------------------------------------
// ServiceSession
// ---------------------------------------------------------------------

uint64_t
ServiceSession::remaining() const
{
    return service_->readCount() - position_;
}

void
ServiceSession::seek(uint64_t read_index)
{
    sage_assert(read_index <= service_->readCount(),
                "seek past end of archive");
    position_ = read_index;
    chunk_.reset();
}

bool
ServiceSession::ensureChunk()
{
    if (chunk_ && position_ >= chunk_->firstRead &&
        position_ < chunk_->firstRead + chunk_->batch.size()) {
        return true;
    }
    // Abandonment is sticky; a chunk-decode Error is not — a later
    // call retries the fetch (the fault may have been transient, and
    // the cache kept no poisoned entry).
    if (status_ == RequestStatus::Expired ||
        status_ == RequestStatus::Cancelled) {
        return false;
    }
    status_ = RequestStatus::Ok;
    // Chunk fetches go through the scheduler like any other request
    // so a flood of Background warms cannot starve them.
    const size_t index = service_->chunkForRead(position_);
    using Outcome = std::pair<DecodedChunkPtr, RequestStatus>;
    auto promise = std::make_shared<std::promise<Outcome>>();
    std::future<Outcome> future = promise->get_future();
    const Stopwatch clock;
    SageArchiveService *service = service_;
    const RequestOptions &options = options_;
    service_->enqueue(
        options_.priority,
        [service, index, options, promise, clock] {
            // Dequeue-time check, then an abandonable fetch: the
            // session's token/deadline covers every fetch it issues.
            RequestStatus status = options.checkNow();
            DecodedChunkPtr data;
            if (status == RequestStatus::Ok) {
                Status error;
                data = service->fetchChunkForSession(
                    index, options.abandonable() ? &options : nullptr,
                    &error);
                if (data)
                    status = RequestStatus::Ok;
                else if (!error.ok())
                    status = RequestStatus::Error;
                else
                    status = options.checkNow();
            }
            service->recordRequest(options.priority, status,
                                   clock.seconds(), 0, 0);
            promise->set_value(Outcome{std::move(data), status});
        });
    Outcome outcome = future.get();
    chunk_ = std::move(outcome.first);
    if (!chunk_) {
        status_ = outcome.second;
        sage_assert(status_ != RequestStatus::Ok,
                    "session fetch abandoned without a cause");
        return false;
    }
    return true;
}

Read
ServiceSession::next()
{
    sage_assert(hasNext(), "session exhausted");
    sage_assert(ensureChunk(), "session ",
                requestStatusName(status_),
                " - poll lastStatus() or use read()");
    const size_t index =
        static_cast<size_t>(position_ - chunk_->firstRead);
    position_++;
    service_->readsServed_.fetch_add(1, std::memory_order_relaxed);
    service_->bytesServed_.fetch_add(chunk_->batch.payloadBytes(index, 1),
                                     std::memory_order_relaxed);
    return chunk_->batch.read(index);
}

std::vector<Read>
ServiceSession::read(uint64_t count)
{
    count = std::min(count, remaining());
    std::vector<Read> out;
    out.reserve(static_cast<size_t>(count));
    uint64_t taken_bytes = 0;
    while (count > 0) {
        if (!ensureChunk())
            break;  // Cancelled/expired: deliver what is assembled.
        const uint64_t chunk_end =
            chunk_->firstRead + chunk_->batch.size();
        const uint64_t take = std::min(count, chunk_end - position_);
        const ReadSpan span{
            chunk_, static_cast<size_t>(position_ - chunk_->firstRead),
            static_cast<size_t>(take)};
        span.materialize(out);
        taken_bytes += span.payloadBytes();
        position_ += take;
        count -= take;
    }
    service_->readsServed_.fetch_add(out.size(),
                                     std::memory_order_relaxed);
    service_->bytesServed_.fetch_add(taken_bytes,
                                     std::memory_order_relaxed);
    return out;
}

} // namespace sage
