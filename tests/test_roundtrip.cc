/**
 * @file
 * Differential read-path round trip: every way of reading an archive
 * back must return the same bytes.
 *
 * Each corpus is a simgen read set compressed over a grid of
 * chunkReads (1, 7, and more than half the set), quality kept or
 * dropped, and preserveOrder on or off, plus long-read corpora
 * (thousands of bases per read) at chunkReads 7 and more than half the
 * set, plus single-chunk legacy (v1, chunkReads 0) archives, plus
 * short-read archives with 500-char quality blocks at chunkReads 7 and
 * more than half the set, so quality blocks straddle chunks, plus
 * N-rich short-read archives (a fifth of the reads hold an N) at
 * chunkReads 7 and more than half the set, with and without quality.
 * The stored order is taken from the sequential reader
 * (SageReader::next) and checked to be a permutation of the input;
 * every other path must then return it byte for byte, header and
 * quality included:
 *
 *   - SageReader::decodeAll over a thread pool and without one (the
 *     input order itself when the archive preserved it);
 *   - a next() walk with the prefetch decode-ahead on;
 *   - readChunk(i) concatenated over every chunk, and
 *     decodeRange(1, n-1) over all chunks but the first;
 *   - decodeAllPacked(TwoBit), against packSequence of the stored
 *     order (3-bit for reads holding a non-ACGT base);
 *   - SageArchiveService range reads that straddle chunk boundaries,
 *     through readRange and through submit's pinned spans, with a
 *     0-byte cache budget and a budget of about two chunks, so
 *     delivered spans must pin chunks the cache already dropped;
 *   - ServiceSession::read in steps that cross chunk boundaries;
 *   - loopback READ_RANGE and READ_CHUNK through net::Client.
 *
 * Span pins cross pool and test threads here, so the suite runs under
 * the TSan preset in CI.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

/** Container layout of a grid point's archive. One byte, and 0 or 1
 *  for the chunked and v1 points: test names embed the parameter's
 *  bytes, so those points must keep their values. */
enum class Layout : uint8_t
{
    Chunked = 0,
    /** A single-chunk v1 archive (chunkReads 0 in the SageConfig). */
    LegacyV1 = 1,
    /** Chunked, with quality blocks of kSmallQualityBlock chars: a
     *  short-read chunk of 7 reads spans about three blocks, and a
     *  chunk's tail under a quarter block joins the next chunk's
     *  first block, so some blocks straddle chunk boundaries. */
    SmallQualityBlocks = 2,
    /** Chunked, with kNRichReadProb of the reads holding an N, so the
     *  decoder's escape payloads cross every path. */
    NRich = 3,
};

constexpr double kNRichReadProb = 0.2;

constexpr uint64_t kSmallQualityBlock = 500;

/** One grid point. chunkReads 0 means "just over half the set",
 *  unless the layout is LegacyV1. */
struct GridPoint
{
    uint32_t chunkReads;
    bool keepQuality;
    bool preserveOrder;
    bool longReads = false;
    Layout layout = Layout::Chunked;
};

std::string
gridName(const ::testing::TestParamInfo<GridPoint> &info)
{
    const GridPoint &p = info.param;
    return (p.layout == Layout::LegacyV1 ? std::string("v1")
                : p.chunkReads == 0      ? std::string("chunkHalfPlus")
                                    : "chunk" + std::to_string(p.chunkReads)) +
        (p.keepQuality ? "_qual" : "_noqual") +
        (p.preserveOrder ? "_ordered" : "_stored") +
        (p.longReads ? "_long" : "") +
        (p.layout == Layout::SmallQualityBlocks ? "_qblock" : "") +
        (p.layout == Layout::NRich ? "_nrich" : "");
}

std::vector<GridPoint>
grid()
{
    std::vector<GridPoint> points;
    for (const uint32_t chunk_reads : {1u, 7u, 0u}) {
        for (const bool quality : {true, false}) {
            for (const bool order : {true, false})
                points.push_back(GridPoint{chunk_reads, quality, order});
        }
    }
    for (const uint32_t chunk_reads : {7u, 0u}) {
        for (const bool quality : {true, false}) {
            for (const bool order : {true, false}) {
                points.push_back(
                    GridPoint{chunk_reads, quality, order, true});
            }
        }
    }
    for (const bool quality : {true, false}) {
        for (const bool order : {true, false}) {
            points.push_back(
                GridPoint{0, quality, order, false, Layout::LegacyV1});
        }
    }
    for (const uint32_t chunk_reads : {7u, 0u}) {
        for (const bool order : {true, false}) {
            points.push_back(GridPoint{chunk_reads, true, order, false,
                                       Layout::SmallQualityBlocks});
        }
    }
    for (const uint32_t chunk_reads : {7u, 0u}) {
        for (const bool quality : {true, false}) {
            points.push_back(GridPoint{chunk_reads, quality, false, false,
                                       Layout::NRich});
        }
    }
    return points;
}

void
expectSameReads(const std::vector<Read> &got,
                const std::vector<Read> &want, const std::string &path)
{
    ASSERT_EQ(got.size(), want.size()) << path;
    for (size_t i = 0; i < got.size(); i++) {
        ASSERT_EQ(got[i].header, want[i].header) << path << " read " << i;
        ASSERT_EQ(got[i].bases, want[i].bases) << path << " read " << i;
        ASSERT_EQ(got[i].quals, want[i].quals) << path << " read " << i;
    }
}

std::vector<Read>
sortedCopy(std::vector<Read> reads)
{
    std::sort(reads.begin(), reads.end(), [](const Read &a, const Read &b) {
        return std::tie(a.header, a.bases, a.quals) <
            std::tie(b.header, b.bases, b.quals);
    });
    return reads;
}

class ReadPathRoundTrip : public ::testing::TestWithParam<GridPoint>
{
  protected:
    void
    SetUp() override
    {
        const GridPoint &point = GetParam();
        DatasetSpec spec = makeTinySpec(point.longReads);
        // A few hundred short reads, or a few dozen long ones.
        spec.genome.referenceLength = point.longReads ? 1 << 15 : 1 << 14;
        if (point.layout == Layout::NRich)
            spec.sequencer.nReadProb = kNRichReadProb;
        const SimulatedDataset ds = synthesizeDataset(spec);
        input_ = ds.readSet.reads;
        ASSERT_GT(input_.size(), 16u);
        if (point.layout == Layout::NRich) {
            const auto has_n = [](const Read &read) {
                return read.bases.find('N') != std::string::npos;
            };
            ASSERT_GT(std::count_if(input_.begin(), input_.end(), has_n),
                      static_cast<ptrdiff_t>(input_.size() / 10));
        }
        if (!point.keepQuality) {
            for (Read &read : input_)
                read.quals.clear();
        }

        const bool legacy = point.layout == Layout::LegacyV1;
        SageConfig config;
        config.chunkReads = legacy ? 0
            : point.chunkReads != 0
            ? point.chunkReads
            : static_cast<uint32_t>(input_.size() / 2 + 1);
        config.keepQuality = point.keepQuality;
        config.preserveOrder = point.preserveOrder;
        if (point.layout == Layout::SmallQualityBlocks)
            config.quality.blockChars = kSmallQualityBlock;
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);

        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string unique = info->name();
        std::replace(unique.begin(), unique.end(), '/', '_');
        dir_ = ::testing::TempDir() + "sage_roundtrip_" + unique;
        ::mkdir(dir_.c_str(), 0755);
        path_ = dir_ + "/" + kName;
        {
            FileSink sink(path_);
            sink.writeBytes(archive.bytes);
        }

        // The stored order, from the sequential reader.
        SageReader reader(path_);
        while (reader.hasNext())
            stored_.push_back(reader.next());
        chunks_ = reader.chunkCount();
        ASSERT_EQ(reader.info().params.version,
                  legacy ? kFormatVersionLegacy
                                 : kFormatVersionChunked);
        // A v1 archive is one chunk holding every read.
        chunkReads_ = legacy ? stored_.size() : config.chunkReads;
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        ::rmdir(dir_.c_str());
    }

    /** Range starts and lengths that straddle chunk boundaries. */
    std::vector<std::pair<uint64_t, uint64_t>>
    straddlingRanges() const
    {
        const uint64_t n = stored_.size();
        const uint64_t c = chunkReads_;
        std::vector<std::pair<uint64_t, uint64_t>> ranges = {
            {0, n}, {0, 1}, {n - 1, 1}};
        for (uint64_t at = c > 1 ? c - 1 : 0; at + 2 <= n; at += 3 * c + 1)
            ranges.emplace_back(at, std::min<uint64_t>(n - at, c + 2));
        ranges.emplace_back(n / 3, n - n / 3);
        return ranges;
    }

    static constexpr const char *kName = "roundtrip.sage";
    std::string dir_;
    std::string path_;
    std::vector<Read> input_;
    std::vector<Read> stored_;
    size_t chunks_ = 0;
    uint64_t chunkReads_ = 0;
};

TEST_P(ReadPathRoundTrip, SequentialReaderIsPermutationOfInput)
{
    expectSameReads(sortedCopy(stored_), sortedCopy(input_), "next()");
}

TEST_P(ReadPathRoundTrip, DecodeAllOverPool)
{
    ThreadPool pool(3);
    SageReader reader(path_);
    const ReadSet all = reader.decodeAll(&pool);
    expectSameReads(all.reads, GetParam().preserveOrder ? input_ : stored_,
                    "decodeAll(pool)");
}

TEST_P(ReadPathRoundTrip, DecodeAllWithoutPool)
{
    SageReader reader(path_);
    const ReadSet all = reader.decodeAll();
    expectSameReads(all.reads, GetParam().preserveOrder ? input_ : stored_,
                    "decodeAll()");
}

TEST_P(ReadPathRoundTrip, PrefetchNextWalk)
{
    SageReaderOptions options;
    options.prefetch = true;
    SageReader reader(path_, options);
    std::vector<Read> got;
    while (reader.hasNext())
        got.push_back(reader.next());
    expectSameReads(got, stored_, "prefetch next()");
}

TEST_P(ReadPathRoundTrip, DecodeRangeSkippingFirstChunk)
{
    SageReader reader(path_);
    const uint64_t first =
        chunks_ > 1 ? reader.chunkFirstRead(1) : stored_.size();
    const std::vector<Read> want(stored_.begin() + first, stored_.end());
    expectSameReads(reader.decodeRange(1, chunks_ - 1).reads, want,
                    "decodeRange(1, n-1)");
    ThreadPool pool(3);
    expectSameReads(reader.decodeRange(1, chunks_ - 1, &pool).reads, want,
                    "decodeRange(1, n-1, pool)");
}

TEST_P(ReadPathRoundTrip, DecodeAllPackedTwoBit)
{
    SageReaderOptions options;
    options.dnaOnly = true;
    SageReader reader(path_, options);
    ThreadPool pool(3);
    const std::vector<std::vector<uint8_t>> packed =
        reader.decodeAllPacked(OutputFormat::TwoBit, &pool);
    ASSERT_EQ(packed.size(), stored_.size());
    for (size_t i = 0; i < packed.size(); i++) {
        const std::string &bases = stored_[i].bases;
        ASSERT_EQ(packed[i],
                  packSequence(bases, isAcgtOnly(bases)
                                          ? OutputFormat::TwoBit
                                          : OutputFormat::ThreeBit))
            << "decodeAllPacked read " << i;
    }
}

TEST_P(ReadPathRoundTrip, ReadChunkConcatenation)
{
    SageReader reader(path_);
    ASSERT_EQ(reader.chunkCount(), chunks_);
    std::vector<Read> got;
    for (size_t c = 0; c < reader.chunkCount(); c++) {
        const std::vector<Read> chunk = reader.readChunk(c);
        EXPECT_EQ(chunk.size(), reader.chunkReadCount(c));
        got.insert(got.end(), chunk.begin(), chunk.end());
    }
    expectSameReads(got, stored_, "readChunk");
}

TEST_P(ReadPathRoundTrip, ServiceRangesPinEvictedChunks)
{
    for (const uint64_t budget :
         {uint64_t{0},
          2 * DecodedChunk::residentBytes(std::vector<Read>(
                  stored_.begin(),
                  stored_.begin() +
                      std::min<uint64_t>(chunkReads_, stored_.size())))}) {
        ServiceOptions options;
        options.cacheBudgetBytes = budget;
        options.cacheShards = 1;
        options.ownedPoolThreads = 3;
        SageArchiveService service(path_, options);
        const std::string label = "budget " + std::to_string(budget);

        // Blocking helper: owned reads.
        for (const auto &[first, count] : straddlingRanges()) {
            const ReadResult result =
                service.readRange(first, count, RequestOptions{});
            ASSERT_TRUE(result.ok()) << result.error.toString();
            expectSameReads(
                result.reads,
                std::vector<Read>(stored_.begin() + first,
                                  stored_.begin() + first + count),
                label + " readRange");
        }

        // submit: every range in flight at once, spans read back on
        // this thread after the cache has moved on.
        const auto ranges = straddlingRanges();
        std::vector<std::future<SpanResult>> done;
        for (const auto &[first, count] : ranges) {
            auto promise = std::make_shared<std::promise<SpanResult>>();
            done.push_back(promise->get_future());
            service.submit(first, count, RequestOptions{},
                           [promise](SpanResult result) {
                               promise->set_value(std::move(result));
                           });
        }
        for (size_t i = 0; i < ranges.size(); i++) {
            const SpanResult result = done[i].get();
            ASSERT_TRUE(result.ok()) << result.error.toString();
            const auto &[first, count] = ranges[i];
            EXPECT_EQ(result.readCount(), count);
            expectSameReads(
                materialize(result).reads,
                std::vector<Read>(stored_.begin() + first,
                                  stored_.begin() + first + count),
                label + " submit spans");
        }
        EXPECT_LE(service.stats().cache.residentBytes, budget);
    }
}

TEST_P(ReadPathRoundTrip, ServiceSessionRead)
{
    ServiceOptions options;
    options.cacheBudgetBytes = 0;
    options.ownedPoolThreads = 2;
    SageArchiveService service(path_, options);
    ServiceSession session = service.openSession();
    std::vector<Read> got;
    const uint64_t step = chunkReads_ + 2;  // Crosses a boundary.
    while (session.hasNext()) {
        const std::vector<Read> part = session.read(step);
        ASSERT_FALSE(part.empty());
        got.insert(got.end(), part.begin(), part.end());
    }
    EXPECT_EQ(session.lastStatus(), RequestStatus::Ok);
    expectSameReads(got, stored_, "ServiceSession::read");
}

TEST_P(ReadPathRoundTrip, LoopbackReadRangeAndReadChunk)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 2;
    service_options.globalCacheBudgetBytes = 0;  // Spans only.
    MultiArchiveService service(dir_, service_options);
    net::Server server(service);
    ASSERT_TRUE(server.start().ok());
    StatusOr<std::unique_ptr<net::Client>> client =
        net::Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    const StatusOr<net::OpenReply> open = (*client)->open(kName);
    ASSERT_TRUE(open.ok()) << open.status().toString();
    ASSERT_EQ(open->readCount, stored_.size());
    ASSERT_EQ(open->chunkCount, chunks_);

    for (const auto &[first, count] : straddlingRanges()) {
        const StatusOr<net::ReadReply> reply =
            (*client)->readRange(open->archive, first, count);
        ASSERT_TRUE(reply.ok()) << reply.status().toString();
        ASSERT_TRUE(reply->ok()) << reply->message;
        expectSameReads(reply->reads,
                        std::vector<Read>(stored_.begin() + first,
                                          stored_.begin() + first + count),
                        "READ_RANGE");
    }

    std::vector<Read> got;
    for (size_t c = 0; c < chunks_; c++) {
        const StatusOr<net::ReadReply> reply =
            (*client)->readChunk(open->archive, c);
        ASSERT_TRUE(reply.ok()) << reply.status().toString();
        ASSERT_TRUE(reply->ok()) << reply->message;
        got.insert(got.end(), reply->reads.begin(), reply->reads.end());
    }
    expectSameReads(got, stored_, "READ_CHUNK");
    client->reset();
    server.stop();
}

INSTANTIATE_TEST_SUITE_P(Grid, ReadPathRoundTrip,
                         ::testing::ValuesIn(grid()), gridName);

} // namespace
} // namespace sage
