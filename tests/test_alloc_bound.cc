/**
 * @file
 * Allocation bounds of the serving path, counted by a global operator
 * new replacement (this file is its own test executable so the
 * counter sees nothing else's allocations).
 *
 *   - SageDecoder::tryDecodeChunkShared builds one flat ReadBatch per
 *     chunk: a 1024-read chunk and a 64-read chunk must cost the same
 *     small constant number of heap blocks, and the batch must be
 *     sized exactly (its cache charge is its real footprint).
 *   - Encoding a read reply from pinned cache spans allocates at most
 *     the frame itself, and yields the same bytes as encoding owned
 *     copies of the reads.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>

#include "core/sage.hh"
#include "simgen/synthesize.hh"

namespace {

/** Heap blocks allocated by the current thread through operator new. */
thread_local uint64_t t_allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    t_allocations++;
    if (void *block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void *block) noexcept
{
    std::free(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace sage {
namespace {

/** Blocks allocated on this thread while @p body runs. */
template <typename Body>
uint64_t
allocationsDuring(const Body &body)
{
    const uint64_t before = t_allocations;
    body();
    return t_allocations - before;
}

class AllocBound : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // One read set (about 1,700 short reads with quality), written
        // twice: 1024-read and 64-read chunks.
        const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
        ASSERT_GT(ds.readSet.reads.size(), 1024u);
        for (const uint32_t chunk_reads : {1024u, 64u}) {
            SageConfig config;
            config.chunkReads = chunk_reads;
            const SageArchive archive =
                sageCompress(ds.readSet, ds.reference, config);
            // ctest runs each test as its own process: keep the files
            // of concurrent processes apart.
            const std::string path = ::testing::TempDir() +
                "sage_alloc_bound_" + std::to_string(::getpid()) + "_" +
                std::to_string(chunk_reads) + ".sage";
            FileSink sink(path);
            sink.writeBytes(archive.bytes);
            paths().push_back(path);
        }
    }

    static void
    TearDownTestSuite()
    {
        for (const std::string &path : paths())
            std::remove(path.c_str());
        paths().clear();
    }

    static std::vector<std::string> &
    paths()
    {
        static std::vector<std::string> files;
        return files;
    }
};

TEST_F(AllocBound, ChunkDecodeCostsConstantBlocks)
{
    std::vector<uint64_t> counts;
    for (const std::string &path : paths()) {
        FileSource file(path);
        const StatusOr<std::unique_ptr<SageDecoder>> opened =
            SageDecoder::tryOpen(file);
        ASSERT_TRUE(opened.ok()) << opened.status().toString();
        SageDecoder &decoder = **opened;
        ASSERT_TRUE(decoder.tryDecodeChunkShared(0).ok());  // Warm-up.

        StatusOr<ReadBatch> batch = Status::outOfRange("not decoded");
        counts.push_back(allocationsDuring(
            [&] { batch = decoder.tryDecodeChunkShared(0); }));
        ASSERT_TRUE(batch.ok()) << batch.status().toString();
        ASSERT_EQ(batch->size(), decoder.chunkReadCount(0));

        // Sized exactly: the cache charge of the decoded batch equals
        // the charge computed from owned copies of its reads.
        std::vector<Read> reads;
        for (size_t i = 0; i < batch->size(); i++)
            reads.push_back(batch->read(i));
        EXPECT_EQ(DecodedChunk::residentBytes(*batch),
                  DecodedChunk::residentBytes(reads));
    }
    ASSERT_EQ(counts.size(), 2u);
    RecordProperty("blocks_per_chunk", static_cast<int>(counts[0]));
    EXPECT_EQ(counts[0], counts[1])
        << "1024-read chunk vs 64-read chunk";
    EXPECT_LE(counts[0], 16u);
}

TEST_F(AllocBound, ReplyFromCachedSpansAllocatesOnlyTheFrame)
{
    ServiceOptions options;
    options.ownedPoolThreads = 2;
    SageArchiveService service(paths().back(), options);  // 64-read chunks.
    // A range straddling three chunks, decoded into the cache first.
    const uint64_t first = 40, count = 150;
    ASSERT_TRUE(service.readRange(first, count, RequestOptions{}).ok());

    auto done = std::make_shared<std::promise<SpanResult>>();
    std::future<SpanResult> pending = done->get_future();
    service.submit(first, count, RequestOptions{},
                   [done](SpanResult result) {
                       done->set_value(std::move(result));
                   });
    const SpanResult spans = pending.get();
    ASSERT_TRUE(spans.ok()) << spans.error.toString();
    ASSERT_EQ(spans.spans.size(), 3u);
    ASSERT_EQ(spans.readCount(), count);

    std::vector<uint8_t> frame;
    EXPECT_LE(allocationsDuring([&] {
                  ASSERT_TRUE(net::appendReadReply(
                                  frame, net::MsgType::ReadRange, 9,
                                  spans.spans)
                                  .ok());
              }),
              1u);

    const std::vector<Read> owned = materialize(spans).reads;
    std::vector<uint8_t> reference;
    EXPECT_LE(allocationsDuring([&] {
                  ASSERT_TRUE(net::appendReadReply(
                                  reference, net::MsgType::ReadRange, 9,
                                  owned)
                                  .ok());
              }),
              1u);
    EXPECT_EQ(frame, reference);
}

} // namespace
} // namespace sage
