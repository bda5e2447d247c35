/**
 * @file
 * Robustness tests: deterministic fault injection
 * (io/fault_injection.hh), hardened parsing of corrupted archives
 * (SageDecoder::tryOpen over truncated and bit-flipped containers),
 * and graceful degradation in the service layer — a failed chunk
 * decode surfaces RequestStatus::Error to the affected request only,
 * never poisons the cache, and reconciles with the injected fault
 * counts. Runs under the ASan/UBSan preset in CI, which is what
 * turns "no crash" into "no crash and no leak".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "compress/gpzip.hh"
#include "compress/quality.hh"
#include "compress/streams.hh"
#include "core/sage.hh"
#include "io/fault_injection.hh"
#include "simgen/synthesize.hh"
#include "util/thread_pool.hh"
#include "util/varint.hh"

namespace sage {
namespace {

/** A counting source that fails the first @p failures try-reads with
 *  IoError, then behaves: the shape of a transient disk hiccup. */
class FlakySource final : public ByteSource
{
  public:
    FlakySource(const ByteSource &inner, int failures)
        : inner_(inner), failuresLeft_(failures)
    {}

    /** Arm the next @p n try-reads to fail. */
    void setFailures(int n) { failuresLeft_.store(n); }

    uint64_t size() const override { return inner_.size(); }
    const uint8_t *view(uint64_t, size_t) const override
    {
        return nullptr; // Force the try-read path.
    }
    Status tryReadAt(uint64_t offset, void *dst,
                     size_t size) const override
    {
        if (failuresLeft_.fetch_sub(1, std::memory_order_relaxed) > 0)
            return Status::ioError("transient hiccup");
        return inner_.tryReadAt(offset, dst, size);
    }
    std::string describe() const override { return "<flaky>"; }

  private:
    const ByteSource &inner_;
    mutable std::atomic<int> failuresLeft_;
};

/** Compress a small synthetic dataset into archive bytes with enough
 *  chunks for cache/eviction traffic. */
std::vector<uint8_t>
makeArchiveBytes(unsigned chunk_reads = 512)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = chunk_reads;
    SageArchive archive = sageCompress(ds.readSet, ds.reference, config);
    return std::move(archive.bytes);
}

/** The stream directory of archive @p bytes; the test fails (and
 *  gets an empty directory) when it does not parse. */
StreamDirectory
directoryOf(const std::vector<uint8_t> &bytes)
{
    StatusOr<StreamDirectory> parsed =
        StreamDirectory::tryParse(MemorySource(bytes));
    EXPECT_TRUE(parsed.ok()) << parsed.status().toString();
    return parsed.ok() ? std::move(parsed.value()) : StreamDirectory{};
}

// ---------------------------------------------------------------------
// FaultInjectionSource
// ---------------------------------------------------------------------

TEST(FaultInjection, SameSeedSameSchedule)
{
    std::vector<uint8_t> bytes(1 << 16);
    for (size_t i = 0; i < bytes.size(); i++)
        bytes[i] = static_cast<uint8_t>(i * 131);
    const MemorySource inner(bytes);

    FaultConfig config;
    config.seed = 42;
    config.ioErrorRate = 0.1;
    config.shortReadRate = 0.1;
    config.bitFlipRate = 0.1;

    const auto runSchedule = [&](const FaultInjectionSource &source) {
        std::vector<StatusCode> codes;
        std::vector<uint8_t> dst(256);
        for (uint64_t op = 0; op < 500; op++) {
            const Status status =
                source.tryReadAt((op * 97) % (bytes.size() - dst.size()),
                                 dst.data(), dst.size());
            codes.push_back(status.code());
        }
        return codes;
    };

    const FaultInjectionSource a(inner, config);
    const FaultInjectionSource b(inner, config);
    EXPECT_EQ(runSchedule(a), runSchedule(b));
    EXPECT_EQ(a.counters().ioErrors, b.counters().ioErrors);
    EXPECT_EQ(a.counters().shortReads, b.counters().shortReads);
    EXPECT_EQ(a.counters().bitFlips, b.counters().bitFlips);
    EXPECT_EQ(a.counters().operations, 500u);
    // The schedule actually fired: ~10% per kind over 500 draws.
    EXPECT_GT(a.counters().ioErrors, 0u);
    EXPECT_GT(a.counters().shortReads, 0u);
    EXPECT_GT(a.counters().bitFlips, 0u);
}

TEST(FaultInjection, FatalPathIsInjectedToo)
{
    std::vector<uint8_t> bytes(4096, 0xA5);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.failEveryN = 1; // Every read fails ...
    const FaultInjectionSource source(inner, config);

    // ... the fatal wrapper included, which dies naming the fault,
    std::vector<uint8_t> dst(64, 0);
    EXPECT_EXIT({ source.readAt(128, dst.data(), dst.size()); },
                ::testing::ExitedWithCode(1), "injected I/O error");

    // views are refused (so no caller can bypass the schedule),
    EXPECT_EQ(source.view(0, 16), nullptr);

    // and the recoverable path fails on schedule.
    EXPECT_EQ(source.tryReadAt(128, dst.data(), dst.size()).code(),
              StatusCode::IoError);
    EXPECT_EQ(source.counters().ioErrors, 1u);
}

TEST(FaultInjection, DisarmedReadsPassThroughUncounted)
{
    std::vector<uint8_t> bytes(4096, 0x3C);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.failEveryN = 1;
    FaultInjectionSource source(inner, config);

    source.setArmed(false);
    std::vector<uint8_t> dst(64, 0);
    EXPECT_TRUE(source.tryReadAt(0, dst.data(), dst.size()).ok());
    EXPECT_EQ(dst[0], 0x3C);
    EXPECT_EQ(source.counters().operations, 0u);

    source.setArmed(true);
    EXPECT_FALSE(source.tryReadAt(0, dst.data(), dst.size()).ok());
    EXPECT_EQ(source.counters().operations, 1u);
}

TEST(FaultInjection, BitFlipCorruptsExactlyOneBit)
{
    std::vector<uint8_t> bytes(1024);
    for (size_t i = 0; i < bytes.size(); i++)
        bytes[i] = static_cast<uint8_t>(i);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.bitFlipRate = 1.0;
    const FaultInjectionSource source(inner, config);

    std::vector<uint8_t> dst(256, 0);
    ASSERT_TRUE(source.tryReadAt(0, dst.data(), dst.size()).ok());
    int flipped_bits = 0;
    for (size_t i = 0; i < dst.size(); i++) {
        uint8_t diff = static_cast<uint8_t>(dst[i] ^ bytes[i]);
        while (diff != 0) {
            flipped_bits += diff & 1;
            diff >>= 1;
        }
    }
    EXPECT_EQ(flipped_bits, 1);
    EXPECT_EQ(source.counters().bitFlips, 1u);
}

TEST(FaultInjection, ShortReadReportsTruncated)
{
    const std::vector<uint8_t> bytes(1024, 0x77);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.shortReadRate = 1.0;
    const FaultInjectionSource source(inner, config);

    std::vector<uint8_t> dst(100, 0);
    const Status status = source.tryReadAt(0, dst.data(), dst.size());
    EXPECT_EQ(status.code(), StatusCode::Truncated);
    EXPECT_EQ(source.counters().shortReads, 1u);
}

// ---------------------------------------------------------------------
// Corrupted archives: hardened parsing, never a crash
// ---------------------------------------------------------------------

TEST(CorruptArchive, TruncationAtEveryFramingBoundaryIsRecoverable)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const StreamDirectory dir = directoryOf(bytes);

    // Candidate cut points: the head of the container, every stream's
    // framing edges (just before the name, mid-payload, end of
    // payload), and just short of the trailer.
    std::vector<uint64_t> cuts = {0, 1, 2, 3, 5, bytes.size() - 1,
                                  bytes.size() - 4};
    for (const auto &[name, extent] : dir.extents()) {
        (void)name;
        if (extent.offset > 0)
            cuts.push_back(extent.offset - 1);
        cuts.push_back(extent.offset);
        cuts.push_back(extent.offset + extent.size / 2);
        cuts.push_back(extent.offset + extent.size);
    }

    for (const uint64_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        const MemorySource truncated(bytes.data(),
                                     static_cast<size_t>(cut));
        const StatusOr<std::unique_ptr<SageDecoder>> opened =
            SageDecoder::tryOpen(truncated);
        ASSERT_FALSE(opened.ok()) << "cut at " << cut << " of "
                                  << bytes.size() << " parsed";
        const StatusCode code = opened.status().code();
        EXPECT_TRUE(code == StatusCode::Truncated ||
                    code == StatusCode::Corrupt ||
                    code == StatusCode::OutOfRange)
            << "cut at " << cut << ": " << opened.status().toString();
    }
}

TEST(CorruptArchive, ChecksumVerificationCatchesEveryStreamBitFlip)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const StreamDirectory dir = directoryOf(bytes);

    for (const auto &[name, extent] : dir.extents()) {
        if (extent.size == 0)
            continue;
        std::vector<uint8_t> flipped = bytes;
        flipped[extent.offset + extent.size / 2] ^= 0x10;
        const MemorySource source(flipped);
        const StatusOr<std::unique_ptr<SageDecoder>> opened =
            SageDecoder::tryOpen(source, /*dna_only=*/false,
                                 /*verify_checksum=*/true);
        ASSERT_FALSE(opened.ok())
            << "bit flip in stream " << name << " went unnoticed";
    }
}

TEST(CorruptArchive, BitFlippedStreamsNeverCrashTheDecoder)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const StreamDirectory dir = directoryOf(bytes);

    // Without checksum verification the flip reaches the parser and
    // the per-chunk decoder. Either may reject it with a Status (or,
    // for flips in slack bits, decode something) — what they must
    // never do is crash, assert, or leak (ASan preset covers leaks).
    for (const auto &[name, extent] : dir.extents()) {
        if (extent.size == 0)
            continue;
        for (const uint64_t pos :
             {extent.offset, extent.offset + extent.size / 2,
              extent.offset + extent.size - 1}) {
            std::vector<uint8_t> flipped = bytes;
            flipped[pos] ^= 0x04;
            const MemorySource source(flipped);
            const StatusOr<std::unique_ptr<SageDecoder>> opened =
                SageDecoder::tryOpen(source);
            if (!opened.ok())
                continue; // Rejected at parse: fine.
            SageDecoder &decoder = **opened;
            for (size_t c = 0; c < decoder.chunkCount(); c++) {
                const StatusOr<ReadBatch> chunk =
                    decoder.tryDecodeChunkShared(c);
                (void)chunk; // Ok or Status — both acceptable.
            }
        }
    }
}

TEST(CorruptArchive, OrderStreamMustMapEveryRead)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.preserveOrder = true;
    std::vector<uint8_t> bytes =
        sageCompress(ds.readSet, ds.reference, config).bytes;
    ASSERT_GT(ds.readSet.reads.size(), 128u);
    const StreamExtent order = directoryOf(bytes).extent("order");

    // Every byte becomes a one-byte entry: fewer entries than reads,
    // so some read would have no slot in the restored order.
    std::fill(bytes.begin() + order.offset,
              bytes.begin() + order.offset + order.size, 0x7f);
    const MemorySource source(bytes);
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::Corrupt)
        << opened.status().toString();
}

/** A preserved-order bundle of the tiny short-read set, to edit and
 *  re-serialize (with a valid CRC) before opening. */
struct HostStreamBundle
{
    HostStreamBundle()
    {
        ds = synthesizeDataset(makeTinySpec(false));
        SageConfig config;
        config.chunkReads = 64;
        config.preserveOrder = true;
        sageEncodeToBundle(ds.readSet, ds.reference, config, nullptr,
                           bundle);
        for (const uint32_t src : storedOrder())
            stored.push_back(ds.readSet.reads[src]);
    }

    /** Stored-to-input index of every read, from the order stream. */
    std::vector<uint32_t>
    storedOrder() const
    {
        const std::vector<uint8_t> &raw = bundle.stream("order");
        std::vector<uint32_t> order;
        for (size_t pos = 0; pos < raw.size();)
            order.push_back(static_cast<uint32_t>(getVarint(raw, pos)));
        return order;
    }

    /** Status of tryOpen over the serialized bundle. */
    Status
    open(bool dna_only = false) const
    {
        const std::vector<uint8_t> bytes = bundle.serialize();
        const MemorySource source(bytes);
        return SageDecoder::tryOpen(source, dna_only).status();
    }

    SimulatedDataset ds;
    StreamBundle bundle;
    std::vector<Read> stored;  ///< Reads in stored order.
};

TEST(CorruptArchive, HeadersStreamMustHoldOneFieldPerRead)
{
    HostStreamBundle archive;
    ASSERT_TRUE(archive.open().ok()) << archive.open().toString();
    // Drop the last read's header line: the last read would be served
    // with an empty header.
    std::string headers;
    for (size_t i = 0; i + 1 < archive.stored.size(); i++)
        headers += archive.stored[i].header + '\n';
    archive.bundle.stream("headers") = gpzip::compress(headers);
    const Status status = archive.open();
    EXPECT_EQ(status.code(), StatusCode::Corrupt) << status.toString();
    // A DNA-only open never reads the headers stream.
    EXPECT_TRUE(archive.open(/*dna_only=*/true).ok());
}

TEST(CorruptArchive, QualityStreamMustHoldOneLengthPerRead)
{
    HostStreamBundle archive;
    std::vector<std::string> quals;
    for (size_t i = 0; i + 1 < archive.stored.size(); i++)
        quals.push_back(archive.stored[i].quals);
    archive.bundle.stream("quality") = packQuality(compressQuality(quals));
    const Status status = archive.open();
    EXPECT_EQ(status.code(), StatusCode::Corrupt) << status.toString();
    EXPECT_TRUE(archive.open(/*dna_only=*/true).ok());
}

TEST(CorruptArchive, QualityStreamRequiredWhenParamsSayQuality)
{
    HostStreamBundle archive;
    StreamBundle without;
    for (const auto &[name, size] : archive.bundle.sizes()) {
        (void)size;
        if (name != "quality")
            without.stream(name) = archive.bundle.stream(name);
    }
    archive.bundle = std::move(without);
    const Status status = archive.open();
    EXPECT_EQ(status.code(), StatusCode::Corrupt) << status.toString();
    EXPECT_TRUE(archive.open(/*dna_only=*/true).ok());
}

TEST(CorruptArchive, TryOpenReportsMissingStreams)
{
    // An empty-but-well-framed bundle parses as a directory yet fails
    // archive open with a Corrupt "missing stream" status.
    const std::vector<uint8_t> empty_bundle = {0x00, 0x00, 0x00,
                                               0x00, 0x00};
    // varint stream count 0 + CRC32 trailer of the empty body.
    const MemorySource source(empty_bundle);
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source);
    ASSERT_FALSE(opened.ok());
}

// ---------------------------------------------------------------------
// Restore and prep readers under faults
// ---------------------------------------------------------------------

/** SageReader over a fault-injected in-memory archive: opened over
 *  clean bytes, then every chunk fetch fails with an injected
 *  IoError. The reader's contract at this edge is a fatal exit that
 *  names the error, never wrong reads. */
struct FaultedReader
{
    explicit FaultedReader(const std::vector<uint8_t> &bytes,
                           SageReaderOptions options = {})
        : source(bytes), faulty(source, failEveryFetch())
    {
        faulty.setArmed(false);
        reader = std::make_unique<SageReader>(faulty, options);
        faulty.setArmed(true);
    }

    static FaultConfig
    failEveryFetch()
    {
        FaultConfig config;
        config.failEveryN = 1;
        return config;
    }

    MemorySource source;
    FaultInjectionSource faulty;
    std::unique_ptr<SageReader> reader;
};

constexpr const char *kInjectedIoError = "io-error: injected I/O error";

TEST(ReaderFault, DecodeAllOverPoolDiesNamingTheIoError)
{
    FaultedReader harness(makeArchiveBytes(64));
    ASSERT_GT(harness.reader->chunkCount(), 1u);
    EXPECT_EXIT(
        {
            ThreadPool pool(3);
            const ReadSet rs = harness.reader->decodeAll(&pool);
            (void)rs;
        },
        ::testing::ExitedWithCode(1), kInjectedIoError);
}

TEST(ReaderFault, NextWalkDiesNamingTheIoError)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes(64);
    for (const bool prefetch : {false, true}) {
        SageReaderOptions options;
        options.prefetch = prefetch;
        // Built inside the death statement: the prefetch reader owns a
        // thread, which must not exist when the test forks.
        EXPECT_EXIT(
            {
                FaultedReader harness(bytes, options);
                while (harness.reader->hasNext())
                    (void)harness.reader->next();
            },
            ::testing::ExitedWithCode(1), kInjectedIoError)
            << (prefetch ? "prefetch on" : "prefetch off");
    }
}

TEST(ReaderFault, DecodeAllPackedDiesNamingTheIoError)
{
    SageReaderOptions dna_only;
    dna_only.dnaOnly = true;
    FaultedReader harness(makeArchiveBytes(64), dna_only);
    EXPECT_EXIT(
        {
            const auto packed =
                harness.reader->decodeAllPacked(OutputFormat::TwoBit);
            (void)packed;
        },
        ::testing::ExitedWithCode(1), kInjectedIoError);
}

// ---------------------------------------------------------------------
// Service degradation under faults
// ---------------------------------------------------------------------

/** Service over a fault-injected in-memory archive. The injector is
 *  disarmed for the constructor (archive open must see clean bytes)
 *  and armed afterwards. */
struct FaultedService
{
    explicit FaultedService(const std::vector<uint8_t> &bytes,
                            FaultConfig fault_config,
                            ServiceOptions options = {})
        : source(bytes), faulty(source, fault_config)
    {
        faulty.setArmed(false);
        options.ownedPoolThreads = 2;
        service = std::make_unique<SageArchiveService>(faulty, options);
        faulty.setArmed(true);
    }

    MemorySource source;
    FaultInjectionSource faulty;
    std::unique_ptr<SageArchiveService> service;
};

TEST(ServiceFault, ErrorIsPerRequestAndNeverPoisonsTheCache)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    FaultConfig fault_config;
    fault_config.failEveryN = 1; // Every armed decode read fails.
    ServiceOptions options;
    options.decodeRetries = 0;
    FaultedService harness(bytes, fault_config, options);
    SageArchiveService &service = *harness.service;
    ASSERT_GE(service.chunkCount(), 2u);

    // Affected request: clean Error with the decode's Status attached.
    const ReadResult failed = service.readChunk(0, RequestOptions{});
    EXPECT_EQ(failed.status, RequestStatus::Error);
    EXPECT_TRUE(failed.reads.empty());
    EXPECT_FALSE(failed.error.ok());
    EXPECT_EQ(failed.error.code(), StatusCode::IoError);

    // The failure left no poisoned cache entry: once the fault
    // clears, the same chunk decodes on the next request.
    harness.faulty.setArmed(false);
    const ReadResult recovered = service.readChunk(0, RequestOptions{});
    EXPECT_EQ(recovered.status, RequestStatus::Ok);
    EXPECT_FALSE(recovered.reads.empty());

    // Unaffected bytes are byte-identical to a clean decode.
    const MemorySource clean(bytes);
    SageReader reader(clean);
    const ReadSet expected = reader.decodeRange(0, 1);
    ASSERT_EQ(recovered.reads.size(), expected.reads.size());
    for (size_t i = 0; i < expected.reads.size(); i++)
        EXPECT_EQ(recovered.reads[i].bases, expected.reads[i].bases);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.errored, 1u);
    EXPECT_EQ(stats.ioErrors, 1u);
    EXPECT_EQ(stats.corruptChunks, 0u);
    EXPECT_EQ(stats.retries, 0u);
}

TEST(ServiceFault, ConcurrentRequestsAllSeeTheSharedError)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    FaultConfig fault_config;
    fault_config.failEveryN = 1;
    fault_config.latencyMicros = 200; // Widen the single-flight window.
    ServiceOptions options;
    options.decodeRetries = 0;
    FaultedService harness(bytes, fault_config, options);
    SageArchiveService &service = *harness.service;

    // Many clients pile onto the same failing chunk: every one must
    // complete with Error (leader or coalesced follower), and the
    // process must survive.
    constexpr int kClients = 8;
    std::atomic<int> errors{0};
    std::vector<std::thread> fleet;
    for (int c = 0; c < kClients; c++) {
        fleet.emplace_back([&service, &errors] {
            const ReadResult result =
                service.readChunk(0, RequestOptions{});
            if (result.status == RequestStatus::Error &&
                !result.error.ok())
                errors.fetch_add(1, std::memory_order_relaxed);
        });
    }
    for (auto &client : fleet)
        client.join();
    EXPECT_EQ(errors.load(), kClients);
    EXPECT_EQ(service.stats().errored,
              static_cast<uint64_t>(kClients));

    // Recovery still works after the pile-up.
    harness.faulty.setArmed(false);
    EXPECT_EQ(service.readChunk(0, RequestOptions{}).status,
              RequestStatus::Ok);
}

TEST(ServiceFault, SessionsRetryPastNonStickyErrors)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    FaultConfig fault_config;
    fault_config.failEveryN = 1;
    ServiceOptions options;
    options.decodeRetries = 0;
    FaultedService harness(bytes, fault_config, options);
    SageArchiveService &service = *harness.service;

    ServiceSession session = service.openSession();
    ASSERT_TRUE(session.hasNext());
    EXPECT_TRUE(session.read(64).empty());
    EXPECT_EQ(session.lastStatus(), RequestStatus::Error);

    // Error is not sticky: the cursor is parked before the failed
    // chunk, and once the fault clears the same session resumes and
    // completes a full, correct walk.
    harness.faulty.setArmed(false);
    uint64_t delivered = 0;
    while (session.hasNext()) {
        const std::vector<Read> reads = session.read(1024);
        if (reads.empty() &&
            session.lastStatus() != RequestStatus::Ok)
            break;
        delivered += reads.size();
    }
    EXPECT_EQ(delivered, service.readCount());
}

TEST(ServiceFault, RetryAbsorbsTransientIoErrors)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const MemorySource inner(bytes);

    ServiceOptions options;
    options.decodeRetries = 2;
    options.ownedPoolThreads = 2;

    // The source heals after one failure — exactly the transient
    // hiccup decodeRetries exists for. The request sees nothing.
    FlakySource flaky(inner, 0); // Clean during open ...
    SageArchiveService service(flaky, options);
    flaky.setFailures(1); // ... one hiccup before the first decode.

    const ReadResult result = service.readChunk(0, RequestOptions{});
    EXPECT_EQ(result.status, RequestStatus::Ok);
    EXPECT_FALSE(result.reads.empty());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.ioErrors, 0u);
    EXPECT_EQ(stats.corruptChunks, 0u);
    EXPECT_EQ(stats.errored, 0u);
}

} // namespace
} // namespace sage
