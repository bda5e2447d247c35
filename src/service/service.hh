/**
 * @file
 * SageArchiveService: a concurrent, multi-client serving layer over
 * one open SAGe archive.
 *
 * The paper's thesis is that decode stops being the bottleneck once
 * it is cheap and overlapped with I/O (§5.2); this layer addresses
 * the next bottleneck at scale — many consumers of the *same*
 * archive each re-reading and re-decoding the same chunks. The
 * service owns an open archive (any ByteSource: file, memory, or a
 * striped device array) and serves N clients through:
 *
 *   - a sharded, byte-budgeted, scan-resistant cache of decoded
 *     chunks (service/chunk_cache.hh: SIEVE-style admission with a
 *     ghost set) with single-flight decode, so a hot chunk is
 *     decompressed once no matter how many clients want it and a
 *     64-client sequential sweep cannot flush it;
 *   - a request scheduler that drains submit() requests onto a
 *     shared util/thread_pool in FIFO-within-priority order (an
 *     Interactive request overtakes queued Background warms,
 *     requests of equal priority run in arrival order);
 *   - per-request QoS (service/qos.hh): RequestOptions carry a
 *     deadline and a CancelToken, checked when the request is
 *     dequeued and before each chunk decode, so an interactive
 *     request abandons the queue instead of waiting out a deep batch
 *     backlog; expired/cancelled requests complete with a distinct
 *     RequestStatus and are counted in ServiceStats;
 *   - per-client ServiceSession handles that track sequential
 *     position, letting the service speculate each client's next
 *     chunk into the cache (the serving-layer analogue of
 *     SageReaderOptions::prefetch);
 *   - ServiceStats: request/byte counters, cache hit rate, queue
 *     depth, and request latency per priority class
 *     (util/histogram.hh's LatencyHistogram), snapshotted
 *     consistently against scheduler mutation.
 *
 * Requests address reads by stored-order index — submit(first,
 * count, options, done) spans chunk boundaries transparently — and
 * complete with pinned spans of cached ReadBatches (SpanResult).
 * readRange()/readChunk() are blocking helpers over submit() that
 * copy the spans into owned Reads, as do sessions. See
 * docs/service.md for the cache and scheduling model plus sizing
 * guidance.
 */

#ifndef SAGE_SERVICE_SERVICE_HH
#define SAGE_SERVICE_SERVICE_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/decoder.hh"
#include "io/file_stream.hh"
#include "service/chunk_cache.hh"
#include "service/qos.hh"
#include "util/histogram.hh"

namespace sage {

class ThreadPool;

/** Service construction knobs. */
struct ServiceOptions
{
    /** Decoded-chunk cache budget. The decoded working set is roughly
     *  the FASTQ size of the cached span (docs/service.md has sizing
     *  guidance); 0 disables retention (every request decodes). */
    uint64_t cacheBudgetBytes = 256ull << 20;

    /** Cache shards (lock striping; power of two recommended). */
    unsigned cacheShards = 8;

    /** Skip host-side header/quality streams, like
     *  SageReaderOptions::dnaOnly (accelerator-feeding deployments). */
    bool dnaOnly = false;

    /** Worker pool the scheduler drains onto (must outlive the
     *  service). When null the service owns a pool of
     *  @ref ownedPoolThreads workers. */
    ThreadPool *pool = nullptr;

    /** Owned-pool size when @ref pool is null (0 = hardware
     *  concurrency). */
    unsigned ownedPoolThreads = 0;

    /** Re-attempts of a chunk decode that failed with a *transient*
     *  I/O error (StatusCode::IoError) before the failure is delivered
     *  to the request. Corrupt/truncated data never retries — bad
     *  bytes stay bad. 0 makes every fault surface immediately
     *  (deterministic counter tests want this). */
    unsigned decodeRetries = 2;
};

/** What a blocking request completed with, as owned reads. */
struct ReadResult
{
    RequestStatus status = RequestStatus::Ok;
    /** Empty unless status == Ok (an abandoned or errored request
     *  delivers no partial data — the reads it did assemble are
     *  dropped). */
    std::vector<Read> reads;
    /** Why status == Error, when it is (the failing chunk's decode
     *  Status: IoError, Corrupt, ...); Ok otherwise. */
    Status error;

    bool ok() const { return status == RequestStatus::Ok; }
};

/**
 * What a range request completed with, as pinned spans of decoded
 * chunks: no read is copied. This is what submit() delivers; the
 * blocking helpers materialize() it into a ReadResult.
 */
struct SpanResult
{
    RequestStatus status = RequestStatus::Ok;
    /** Empty unless status == Ok; otherwise consecutive spans that
     *  cover the requested range exactly, in stored order. */
    std::vector<ReadSpan> spans;
    /** Why status == Error, when it is; Ok otherwise. */
    Status error;

    bool ok() const { return status == RequestStatus::Ok; }

    /** Reads across every span. */
    uint64_t readCount() const;

    /** Header + bases + quality bytes across every span. */
    uint64_t payloadBytes() const;
};

/** Owned copies of @p result's reads (status and error carried
 *  over): the blocking helpers' result. */
ReadResult materialize(const SpanResult &result);

/** Snapshot of the service's counters (see stats()). */
struct ServiceStats
{
    /** Completed requests (every status), total and per priority. */
    uint64_t requests = 0;
    std::array<uint64_t, kRequestPriorityCount> requestsByPriority{};

    /** Requests that completed Expired / Cancelled / Error (subsets
     *  of @ref requests; the remainder completed Ok). */
    uint64_t expired = 0;
    uint64_t cancelled = 0;
    uint64_t errored = 0;

    /** Chunk decodes that ultimately failed with an I/O-side fault
     *  (IoError after retries, or an exhausted retry budget). Counted
     *  once per failed decode, not per affected request — coalesced
     *  waiters share their leader's count, so these reconcile with
     *  fault-injection counters. */
    uint64_t ioErrors = 0;

    /** Chunk decodes rejected for bad bytes (Corrupt / Truncated /
     *  OutOfRange). Same once-per-decode accounting as ioErrors. */
    uint64_t corruptChunks = 0;

    /** Transient-fault decode re-attempts (each successful retry is
     *  a request that degraded gracefully instead of erroring). */
    uint64_t retries = 0;

    uint64_t readsServed = 0;  ///< Reads delivered to clients.
    /** Payload bytes delivered: header + bases + quality. */
    uint64_t bytesServed = 0;

    /** Requests queued / executing right now, and the queue's
     *  high-water mark. */
    uint64_t queueDepth = 0;
    uint64_t executing = 0;
    uint64_t maxQueueDepth = 0;

    /** Background cache warms issued, by session readahead or by
     *  explicit warmChunk() calls (one per call that enqueued a warm:
     *  resident or out-of-range chunks are not counted). */
    uint64_t readaheadWarms = 0;

    /** Cache counters (hit rate, evictions, ghost hits, resident). */
    ChunkCacheStats cache;

    /** Request latency, enqueue to completion, per priority class
     *  (index by RequestPriority). Classes are kept apart because a
     *  mix would dilute an interactive p99 with background warms that
     *  by design soak at the queue tail. */
    std::array<LatencySummary, kRequestPriorityCount>
        latencyByPriority{};
};

class SageArchiveService;

/**
 * Per-client handle: a sequential cursor over the archive served
 * through the shared cache. Cheap to create (no decode until the
 * first read); must not outlive its service. Not thread-safe — one
 * session per client thread, any number of sessions per service.
 *
 * A session opened with RequestOptions carrying a CancelToken (or
 * deadline) stops fetching once it fires: read() returns the reads
 * assembled so far (possibly none) and lastStatus() reports why. The
 * cancel check is chunk-grained — reads already resident are still
 * returned.
 *
 * A chunk that fails to decode (I/O fault, corrupt bytes) surfaces as
 * lastStatus() == RequestStatus::Error with the cursor parked before
 * the bad chunk. Unlike cancellation/expiry the condition is not
 * sticky: the next read()/next() retries the fetch.
 */
class ServiceSession
{
  public:
    /** Stored-order index of the next read this session returns. */
    uint64_t position() const { return position_; }

    /** Reads left until the archive is exhausted. */
    uint64_t remaining() const;

    bool hasNext() const { return remaining() > 0; }

    /** Next read in stored order (an owned copy out of the shared
     *  decoded chunk; chunk-grained fetches + readahead behind the
     *  scenes).
     *  Fatal when the chunk fetch fails: on a cancelled/expired
     *  session, and on a chunk that fails to decode (lastStatus()
     *  Error). Use read() and poll lastStatus() when either can
     *  happen. */
    Read next();

    /** Next @p count reads in stored order (clamped to remaining;
     *  stops short when the session's token/deadline fires). */
    std::vector<Read> read(uint64_t count);

    /** Jump the cursor (a non-sequential client). */
    void seek(uint64_t read_index);

    /** Ok until the session's deadline/cancellation fired. */
    RequestStatus lastStatus() const { return status_; }

  private:
    friend class SageArchiveService;
    ServiceSession(SageArchiveService &service, RequestOptions options)
        : service_(&service), options_(std::move(options))
    {}

    /** Ensure chunk_ covers position_ (fetch + readahead on miss).
     *  Returns false when the fetch was abandoned (status_ set). */
    bool ensureChunk();

    SageArchiveService *service_;
    RequestOptions options_;
    RequestStatus status_ = RequestStatus::Ok;
    uint64_t position_ = 0;
    DecodedChunkPtr chunk_;  ///< Shared decoded chunk under the cursor.
};

/** Concurrent multi-client server over one open archive. */
class SageArchiveService
{
  public:
    /** Serve @p source (must outlive the service). Opens through
     *  SageDecoder::tryOpen(); fatal, naming the source and the
     *  Status, when the archive does not open. */
    explicit SageArchiveService(const ByteSource &source,
                                ServiceOptions options = {});

    /** Serve a file (owned FileSource), as the source constructor
     *  does; fatal naming the path. */
    explicit SageArchiveService(const std::string &path,
                                ServiceOptions options = {});

    /** Serve a pre-opened decoder (and optionally the source it reads
     *  from). This is the recoverable-open path: callers that must not
     *  die on a bad archive — the network front end in particular —
     *  open via SageDecoder::tryOpen() and hand the result here.
     *  ServiceOptions::dnaOnly is ignored (decided at tryOpen time). */
    SageArchiveService(std::unique_ptr<SageDecoder> decoder,
                       std::unique_ptr<ByteSource> owned_source,
                       ServiceOptions options = {});

    /** Drains outstanding requests before tearing down. */
    ~SageArchiveService();

    SageArchiveService(const SageArchiveService &) = delete;
    SageArchiveService &operator=(const SageArchiveService &) = delete;

    // ---- structure ---------------------------------------------------

    const ArchiveInfo &info() const { return decoder_->info(); }
    size_t chunkCount() const { return decoder_->chunkCount(); }
    uint64_t readCount() const { return info().params.numReads; }

    /** Stored-order index of chunk @p chunk's first read. */
    uint64_t
    chunkFirstRead(size_t chunk) const
    {
        return decoder_->chunkFirstRead(chunk);
    }

    /** Number of reads stored in chunk @p chunk. */
    uint64_t
    chunkReadCount(size_t chunk) const
    {
        return decoder_->chunkReadCount(chunk);
    }

    // ---- requests ----------------------------------------------------

    /**
     * The service's one request entry point: schedule reads
     * [@p first_read, @p first_read + @p count) in stored order,
     * assembled from the covering chunks through the cache. @p done
     * runs once on a worker thread with the outcome as pinned spans of
     * the cached chunks (nothing copied) — the path the network front
     * end encodes replies from. The request's deadline and CancelToken
     * are checked when the scheduler dequeues it and again before each
     * chunk decode; an abandoned request completes with
     * RequestStatus::Expired/Cancelled and no spans instead of
     * occupying a worker behind a deep backlog. @p done must not block
     * on another blocking request to this service from the same pool
     * (it would occupy the worker it is waiting for). Fatal on an
     * out-of-range span.
     */
    void submit(uint64_t first_read, uint64_t count,
                RequestOptions options,
                std::function<void(SpanResult)> done);

    /** Blocking helper over submit(): waits for the request and
     *  returns owned copies of its reads. */
    ReadResult readRange(uint64_t first_read, uint64_t count,
                         const RequestOptions &options = {});

    /** readRange() over all of chunk @p chunk's reads. */
    ReadResult readChunk(size_t chunk, const RequestOptions &options = {});

    // ---- sessions / cache control ------------------------------------

    /** Open a sequential per-client cursor; @p options (priority,
     *  deadline, CancelToken) apply to every chunk fetch it issues. */
    ServiceSession
    openSession(const RequestOptions &options = {})
    {
        return ServiceSession(*this, options);
    }

    /**
     * Fire-and-forget cache warm of @p chunk at Background priority
     * (no-op when resident or out of range). Single-flight makes
     * duplicate warms free.
     */
    void warmChunk(size_t chunk);

    /** Counter snapshot, consistent against concurrent scheduler and
     *  request-completion mutation (both domains are locked for the
     *  read, so e.g. requests == sum(requestsByPriority) always
     *  holds). */
    ServiceStats stats() const;

    /** The worker pool requests execute on. */
    ThreadPool &pool() { return *pool_; }

    /**
     * Requests enqueued but not yet started, as a single relaxed
     * atomic load. The admission-control hot path (net/ front end)
     * polls this per incoming request, so it must not contend with the
     * scheduler or stats locks the way a full stats() snapshot does.
     * The value is exact under schedMutex_ and momentarily stale
     * without it — fine for a high-water-mark comparison.
     */
    uint64_t
    queueDepth() const
    {
        return queued_.load(std::memory_order_relaxed);
    }

    /** Queue-depth high-water mark (same relaxed-read contract). */
    uint64_t
    queueDepthHighWater() const
    {
        return maxQueueDepth_.load(std::memory_order_relaxed);
    }

  private:
    friend class ServiceSession;

    /** Shared constructor tail (pool setup, chunk prefix table). */
    void init();

    /** Chunk containing stored-order read @p read_index. */
    size_t chunkForRead(uint64_t read_index) const;

    /** Cache-mediated decoded chunk (single-flight on cold misses).
     *  With @p qos, a coalesced wait is abandonable (nullptr with
     *  @p error left Ok). A failed decode returns nullptr with the
     *  failure in @p error — for the decoding leader and every
     *  coalesced waiter alike. */
    DecodedChunkPtr fetchChunk(size_t chunk,
                               const RequestOptions *qos = nullptr,
                               Status *error = nullptr);

    /** fetchChunk + session-readahead of the successor chunk. */
    DecodedChunkPtr fetchChunkForSession(size_t chunk,
                                         const RequestOptions *qos,
                                         Status *error = nullptr);

    /** tryDecodeChunkShared with the transient-retry policy applied:
     *  IoError re-attempts up to ServiceOptions::decodeRetries times
     *  (counted in stats().retries); a terminal failure is classified
     *  into ioErrors/corruptChunks exactly once. */
    StatusOr<ReadBatch> decodeChunkWithRetry(size_t chunk);

    /** Classify a terminal chunk-decode failure into the counters. */
    void recordChunkError(const Status &status);

    /** Pin spans covering reads [first, first+count) of cached
     *  chunks, re-checking @p options before each chunk decode. */
    SpanResult assembleRange(uint64_t first_read, uint64_t count,
                             const RequestOptions &options);

    /** Queue @p work at @p priority; returns after enqueue. */
    void enqueue(RequestPriority priority, std::function<void()> work);

    /** Pop and run the oldest request of the best priority. */
    void runOne();

    /** Record a completed request's latency + served payload
     *  (@p reads reads of @p bytes header + bases + quality bytes). */
    void recordRequest(RequestPriority priority, RequestStatus status,
                       double seconds, uint64_t reads, uint64_t bytes);

    /** Owned for the path and pre-opened-decoder ctors. */
    std::unique_ptr<ByteSource> file_;
    std::unique_ptr<SageDecoder> decoder_;
    ServiceOptions options_;
    std::unique_ptr<ThreadPool> ownedPool_;
    ThreadPool *pool_;
    ChunkCache cache_;

    /** Prefix read-start of every chunk (chunkForRead binary search). */
    std::vector<uint64_t> chunkFirstRead_;

    // Scheduler state: one deque per priority, drained best-first.
    mutable std::mutex schedMutex_;
    std::condition_variable schedIdle_;
    std::array<std::deque<std::function<void()>>, kRequestPriorityCount>
        queues_;
    /** Requests enqueued, not yet started. Mutated only under
     *  schedMutex_; atomic so queueDepth() can read it lock-free. */
    std::atomic<uint64_t> queued_{0};
    uint64_t executing_ = 0;    ///< Requests currently running.
    std::atomic<uint64_t> maxQueueDepth_{0};

    // Counter state (separate lock: hot request completions must not
    // contend with scheduling; stats() alone takes both locks at once
    // so its snapshot is consistent across the two domains). The
    // served tallies are atomics, not mutex-guarded: sessions bump
    // them per delivered read — the hottest path in the service — and
    // must not serialize every client on one lock.
    mutable std::mutex statsMutex_;
    uint64_t requests_ = 0;
    std::array<uint64_t, kRequestPriorityCount> requestsByPriority_{};
    uint64_t expired_ = 0;
    uint64_t cancelled_ = 0;
    uint64_t errored_ = 0;
    uint64_t ioErrors_ = 0;
    uint64_t corruptChunks_ = 0;
    uint64_t retries_ = 0;
    std::atomic<uint64_t> readsServed_{0};
    std::atomic<uint64_t> bytesServed_{0};
    uint64_t readaheadWarms_ = 0;
    std::array<LatencyHistogram, kRequestPriorityCount>
        latencyByPriority_{};
};

} // namespace sage

#endif // SAGE_SERVICE_SERVICE_HH
