/**
 * @file
 * Lazy, per-block quality decode: SageDecoder parses only the quality
 * stream's framing at open, and each quality block is fetched and
 * decoded once, by the first chunk decode that touches it.
 *
 *   - Blocks smaller than a chunk and blocks spanning several chunks
 *     (the fixed layout of archives written before blocks were
 *     chunk-aligned) return the input bytes through every read path,
 *     in any chunk order.
 *   - Eight threads decoding every chunk of one fresh decoder get the
 *     bytes a sequential decode gets (run under the TSan preset in
 *     CI).
 *   - A failed block fetch fails only the chunks overlapping that
 *     block, and the block decodes once the fault clears.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compress/quality.hh"
#include "compress/streams.hh"
#include "core/sage.hh"
#include "io/fault_injection.hh"
#include "simgen/synthesize.hh"
#include "util/thread_pool.hh"
#include "util/varint.hh"

namespace sage {
namespace {

constexpr uint32_t kChunkReads = 16;  // About 2,400 quality chars.

/** Quality blocks smaller than one chunk, and (in the fixed layout)
 *  spanning several. */
constexpr uint64_t kSmallBlock = 1000;
constexpr uint64_t kLargeBlock = 10000;

/** One archive of the tiny short-read set, written to a file. */
class LazyQuality : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
        input_ = ds.readSet;
        reference_ = ds.reference;
        for (const Read &read : input_.reads)
            byHeader_[read.header] = &read;
        ASSERT_EQ(byHeader_.size(), input_.reads.size())
            << "headers must identify reads";

        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = ::testing::TempDir() + "sage_lazy_quality_" + info->name();
        ::mkdir(dir_.c_str(), 0755);
    }

    void
    TearDown() override
    {
        for (const std::string &path : paths_)
            std::remove(path.c_str());
        ::rmdir(dir_.c_str());
    }

    /** Compress the input with @p block_chars quality blocks; returns
     *  the archive file's path. With @p fixed_blocks the quality stream
     *  is re-encoded in blocks of exactly @p block_chars chars that
     *  ignore chunk boundaries, as older writers laid it out. */
    std::string
    writeArchive(uint64_t block_chars, bool fixed_blocks = false)
    {
        SageConfig config;
        config.chunkReads = kChunkReads;
        config.preserveOrder = true;
        config.quality.blockChars = block_chars;
        StreamBundle bundle;
        sageEncodeToBundle(input_, reference_, config, nullptr, bundle);
        if (fixed_blocks) {
            const std::vector<uint8_t> &order = bundle.stream("order");
            std::vector<std::string> stored_quals;
            for (size_t pos = 0; pos < order.size();)
                stored_quals.push_back(
                    input_.reads[getVarint(order, pos)].quals);
            bundle.stream("quality") =
                packQuality(compressQuality(stored_quals, config.quality));
        }
        bytes_ = bundle.serialize();
        paths_.push_back(dir_ + "/q" + std::to_string(block_chars) +
                         ".sage");
        FileSink sink(paths_.back());
        sink.writeBytes(bytes_);
        return paths_.back();
    }

    /** The last archive's quality framing and the stream's offset. */
    QualityLayout
    qualityLayout(uint64_t &stream_offset) const
    {
        const MemorySource source(bytes_);
        const StreamExtent extent =
            StreamDirectory::parse(source).extent("quality");
        stream_offset = extent.offset;
        StatusOr<QualityLayout> layout = tryParseQualityStream(
            bytes_.data() + extent.offset,
            static_cast<size_t>(extent.size));
        EXPECT_TRUE(layout.ok()) << layout.status().toString();
        return layout.ok() ? std::move(layout.value()) : QualityLayout{};
    }

    /** Each read of @p got equals the input read with its header. */
    void
    expectInputReads(const std::vector<Read> &got,
                     const std::string &label) const
    {
        for (size_t i = 0; i < got.size(); i++) {
            const auto it = byHeader_.find(got[i].header);
            ASSERT_NE(it, byHeader_.end()) << label << " read " << i;
            ASSERT_EQ(got[i].bases, it->second->bases)
                << label << " read " << i;
            ASSERT_EQ(got[i].quals, it->second->quals)
                << label << " read " << i;
        }
    }

    ReadSet input_;
    std::string reference_;
    std::map<std::string, const Read *> byHeader_;
    std::vector<uint8_t> bytes_;
    std::string dir_;
    std::vector<std::string> paths_;
};

std::vector<Read>
readsOf(const ReadBatch &batch)
{
    std::vector<Read> reads;
    for (size_t i = 0; i < batch.size(); i++)
        reads.push_back(batch.read(i));
    return reads;
}

void
expectSameBatch(const ReadBatch &got, const ReadBatch &want,
                const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size(); i++) {
        ASSERT_EQ(got.header(i), want.header(i)) << label << " read " << i;
        ASSERT_EQ(got.bases(i), want.bases(i)) << label << " read " << i;
        ASSERT_EQ(got.quals(i), want.quals(i)) << label << " read " << i;
    }
}

TEST_F(LazyQuality, BlocksOnBothSidesOfChunkBoundariesRoundTrip)
{
    for (const uint64_t block_chars : {kSmallBlock, kLargeBlock}) {
        const std::string path =
            writeArchive(block_chars, block_chars == kLargeBlock);
        const std::string label = "blockChars " + std::to_string(block_chars);
        uint64_t stream_offset = 0;
        const QualityLayout layout = qualityLayout(stream_offset);
        SageReader probe(path);
        const size_t chunks = probe.chunkCount();
        ASSERT_GT(chunks, 8u);
        if (block_chars == kSmallBlock)
            ASSERT_GT(layout.blocks.size(), chunks) << label;
        else
            ASSERT_LT(layout.blocks.size() * 3, chunks) << label;

        {
            ThreadPool pool(4);
            SageReader reader(path);
            const ReadSet all = reader.decodeAll(&pool);
            ASSERT_EQ(all.reads.size(), input_.reads.size());
            for (size_t i = 0; i < all.reads.size(); i++) {
                ASSERT_EQ(all.reads[i].header, input_.reads[i].header);
                ASSERT_EQ(all.reads[i].bases, input_.reads[i].bases);
                ASSERT_EQ(all.reads[i].quals, input_.reads[i].quals)
                    << label << " decodeAll(pool) read " << i;
            }
        }
        {
            SageReader reader(path);
            std::vector<Read> got;
            while (reader.hasNext())
                got.push_back(reader.next());
            ASSERT_EQ(got.size(), input_.reads.size());
            expectInputReads(got, label + " next()");
        }
        {
            SageReader reader(path);
            size_t total = 0;
            for (size_t c = chunks; c-- > 0;) {
                const std::vector<Read> chunk = reader.readChunk(c);
                total += chunk.size();
                expectInputReads(chunk, label + " readChunk " +
                                            std::to_string(c));
            }
            EXPECT_EQ(total, input_.reads.size());
        }
        // The primitive itself, in a shuffled chunk order, over a file
        // (block bytes read into a buffer) and over resident bytes
        // (block bytes viewed in place).
        std::vector<size_t> order(chunks);
        std::iota(order.begin(), order.end(), size_t{0});
        std::shuffle(order.begin(), order.end(), std::mt19937(7));
        const FileSource file(path);
        const MemorySource memory(bytes_);
        for (const ByteSource *source :
             {static_cast<const ByteSource *>(&file),
              static_cast<const ByteSource *>(&memory)}) {
            StatusOr<std::unique_ptr<SageDecoder>> decoder =
                SageDecoder::tryOpen(*source);
            ASSERT_TRUE(decoder.ok()) << decoder.status().toString();
            size_t total = 0;
            for (const size_t c : order) {
                const StatusOr<ReadBatch> batch =
                    (*decoder)->tryDecodeChunkShared(c);
                ASSERT_TRUE(batch.ok()) << batch.status().toString();
                total += batch->size();
                expectInputReads(readsOf(*batch),
                                 label + " " + source->describe() +
                                     " chunk " + std::to_string(c));
            }
            EXPECT_EQ(total, input_.reads.size());
        }
    }
}

TEST_F(LazyQuality, ConcurrentChunkDecodesMatchSequential)
{
    const std::string path = writeArchive(kSmallBlock);
    const FileSource file(path);
    StatusOr<std::unique_ptr<SageDecoder>> sequential =
        SageDecoder::tryOpen(file);
    ASSERT_TRUE(sequential.ok()) << sequential.status().toString();
    const size_t chunks = (*sequential)->chunkCount();
    std::vector<ReadBatch> want;
    for (size_t c = 0; c < chunks; c++) {
        StatusOr<ReadBatch> batch = (*sequential)->tryDecodeChunkShared(c);
        ASSERT_TRUE(batch.ok()) << batch.status().toString();
        want.push_back(std::move(batch.value()));
    }

    // A fresh decoder: no block is decoded until the threads race for
    // them. Each thread starts at a different chunk so neighbours
    // contend for the blocks they share.
    StatusOr<std::unique_ptr<SageDecoder>> shared =
        SageDecoder::tryOpen(file);
    ASSERT_TRUE(shared.ok()) << shared.status().toString();
    const SageDecoder &decoder = **shared;
    constexpr size_t kThreads = 8;
    std::promise<void> go;
    std::shared_future<void> start = go.get_future().share();
    std::vector<std::vector<StatusOr<ReadBatch>>> got(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            start.wait();
            for (size_t i = 0; i < chunks; i++) {
                got[t].push_back(decoder.tryDecodeChunkShared(
                    (i + t * chunks / kThreads) % chunks));
            }
        });
    }
    go.set_value();
    for (std::thread &thread : threads)
        thread.join();

    for (size_t t = 0; t < kThreads; t++) {
        ASSERT_EQ(got[t].size(), chunks);
        for (size_t i = 0; i < chunks; i++) {
            const size_t c = (i + t * chunks / kThreads) % chunks;
            ASSERT_TRUE(got[t][i].ok()) << got[t][i].status().toString();
            expectSameBatch(*got[t][i], want[c],
                            "thread " + std::to_string(t) + " chunk " +
                                std::to_string(c));
        }
    }
}

/** Passes every read to @p inner, except the try-reads that lie inside
 *  one byte extent: those go through a FaultInjectionSource that fails
 *  each one with IoError until clear() disarms it. */
class ExtentFaultSource final : public ByteSource
{
  public:
    ExtentFaultSource(const ByteSource &inner, uint64_t offset,
                      uint64_t size)
        : inner_(inner), faulty_(inner, failEveryRead()), begin_(offset),
          end_(offset + size)
    {}

    void clear() { faulty_.setArmed(false); }

    uint64_t size() const override { return inner_.size(); }
    void
    readAt(uint64_t offset, void *dst, size_t size) const override
    {
        inner_.readAt(offset, dst, size);
    }
    Status
    tryReadAt(uint64_t offset, void *dst, size_t size) const override
    {
        if (offset >= begin_ && offset + size <= end_)
            return faulty_.tryReadAt(offset, dst, size);
        return inner_.tryReadAt(offset, dst, size);
    }
    std::string describe() const override { return "<extent faults>"; }

  private:
    static FaultConfig
    failEveryRead()
    {
        FaultConfig config;
        config.failEveryN = 1;
        return config;
    }

    const ByteSource &inner_;
    FaultInjectionSource faulty_;
    uint64_t begin_, end_;
};

TEST_F(LazyQuality, FailedBlockFailsOnlyItsChunksAndIsRetried)
{
    const std::string path = writeArchive(kSmallBlock);
    uint64_t stream_offset = 0;
    const QualityLayout layout = qualityLayout(stream_offset);
    ASSERT_GT(layout.blocks.size(), 4u);
    const size_t bad = layout.blocks.size() / 2;
    uint64_t bad_begin = 0;
    for (size_t b = 0; b < bad; b++)
        bad_begin += layout.blocks[b].chars;
    const uint64_t bad_end = bad_begin + layout.blocks[bad].chars;

    const FileSource file(path);
    StatusOr<std::unique_ptr<SageDecoder>> clean = SageDecoder::tryOpen(file);
    ASSERT_TRUE(clean.ok()) << clean.status().toString();
    const size_t chunks = (*clean)->chunkCount();
    std::vector<ReadBatch> want;
    for (size_t c = 0; c < chunks; c++) {
        StatusOr<ReadBatch> batch = (*clean)->tryDecodeChunkShared(c);
        ASSERT_TRUE(batch.ok()) << batch.status().toString();
        want.push_back(std::move(batch.value()));
    }

    ExtentFaultSource faulty(file, stream_offset + layout.blocks[bad].offset,
                             layout.blocks[bad].size);
    StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(faulty);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    const SageDecoder &decoder = **opened;

    std::vector<bool> overlaps(chunks);
    size_t failing = 0;
    uint64_t chars = 0;
    for (size_t c = 0; c < chunks; c++) {
        const uint64_t begin = chars;
        for (size_t i = 0; i < want[c].size(); i++)
            chars += want[c].quals(i).size();
        overlaps[c] = begin < bad_end && bad_begin < chars;
        failing += overlaps[c] ? 1 : 0;
    }
    ASSERT_GT(failing, 0u);
    ASSERT_LT(failing, chunks);

    for (size_t c = 0; c < chunks; c++) {
        const StatusOr<ReadBatch> batch = decoder.tryDecodeChunkShared(c);
        const std::string label = "chunk " + std::to_string(c);
        if (overlaps[c]) {
            ASSERT_FALSE(batch.ok()) << label;
            EXPECT_EQ(batch.status().code(), StatusCode::IoError)
                << label << ": " << batch.status().toString();
        } else {
            ASSERT_TRUE(batch.ok()) << label << ": "
                                    << batch.status().toString();
            expectSameBatch(*batch, want[c], label);
        }
    }

    faulty.clear();
    for (size_t c = 0; c < chunks; c++) {
        const StatusOr<ReadBatch> batch = decoder.tryDecodeChunkShared(c);
        ASSERT_TRUE(batch.ok()) << "chunk " << c << " after the fault: "
                                << batch.status().toString();
        expectSameBatch(*batch, want[c], "chunk " + std::to_string(c));
    }
}

} // namespace
} // namespace sage
