/**
 * @file
 * Tests for container v2: chunked archives, the chunk index, the
 * v1 backward-compatibility path, and chunk-parallel decode being
 * byte-identical to sequential decode.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

/** Sorted multiset view of (bases, quals) records. */
std::multiset<std::pair<std::string, std::string>>
recordSet(const ReadSet &rs)
{
    std::multiset<std::pair<std::string, std::string>> set;
    for (const auto &read : rs.reads)
        set.emplace(read.bases, read.quals);
    return set;
}

/** Element-wise equality including headers. */
void
expectSameReads(const ReadSet &a, const ReadSet &b)
{
    ASSERT_EQ(a.reads.size(), b.reads.size());
    for (size_t i = 0; i < a.reads.size(); i++) {
        EXPECT_EQ(a.reads[i].bases, b.reads[i].bases) << "read " << i;
        EXPECT_EQ(a.reads[i].quals, b.reads[i].quals) << "read " << i;
        EXPECT_EQ(a.reads[i].header, b.reads[i].header) << "read " << i;
    }
}

// ---------------------------------------------------------------------
// Round trips across chunk sizes
// ---------------------------------------------------------------------

class ChunkedRoundTrip : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(ChunkedRoundTrip, ShortReadsLossless)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = GetParam();
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader reader(source);
    EXPECT_EQ(reader.info().params.version, kFormatVersionChunked);
    const uint64_t reads = ds.readSet.reads.size();
    const uint64_t chunk = GetParam();
    EXPECT_EQ(reader.chunkCount(), (reads + chunk - 1) / chunk);
    const ReadSet back = reader.decodeAll();
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST_P(ChunkedRoundTrip, LongReadsLossless)
{
    DatasetSpec spec = makeTinySpec(true);
    spec.sequencer.chimeraProb = 0.3;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = GetParam();
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

// Chunk of 1 read (one chunk per read), a prime size that never divides
// the read count evenly, and a mid-size many-chunk configuration.
INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedRoundTrip,
                         ::testing::Values(1u, 7u, 64u));

TEST(ChunkedArchive, ExactlyOneChunkWhenSizeMatchesReadCount)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads =
        static_cast<uint32_t>(ds.readSet.reads.size());
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader reader(source);
    EXPECT_EQ(reader.chunkCount(), 1u);
    const ReadSet back = reader.decodeAll();
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(ChunkedArchive, EscapeReadsCrossChunks)
{
    // Many N-reads force escape payloads; tiny chunks make escape-
    // stream offsets matter on nearly every boundary.
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.nReadProb = 0.3;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 5;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(ChunkedArchive, EmptyReadSetStillChunked)
{
    ReadSet rs;
    rs.name = "empty";
    const std::string consensus(1000, 'A');
    SageConfig config;
    config.chunkReads = 16;
    const SageArchive archive = sageCompress(rs, consensus, config);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_TRUE(back.reads.empty());
}

TEST(ChunkedArchive, StreamingNextMatchesDecodeAllAcrossChunks)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 13;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader a(source), b(source);
    ASSERT_GT(a.chunkCount(), 1u);
    const ReadSet all = b.decodeAll();
    size_t i = 0;
    while (a.hasNext()) {
        const Read read = a.next();
        ASSERT_LT(i, all.reads.size());
        EXPECT_EQ(read.bases, all.reads[i].bases);
        EXPECT_EQ(read.quals, all.reads[i].quals);
        i++;
    }
    EXPECT_EQ(i, all.reads.size());
}

// ---------------------------------------------------------------------
// v1 backward compatibility
// ---------------------------------------------------------------------

TEST(ChunkedArchive, V1ArchiveStillDecodes)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 0; // Legacy single-stream layout.
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader reader(source);
    EXPECT_EQ(reader.info().params.version, kFormatVersionLegacy);
    EXPECT_FALSE(reader.info().streamSizes.count("chunks"));
    EXPECT_EQ(reader.chunkCount(), 1u);
    const ReadSet back = reader.decodeAll();
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));

    // The parallel entry point degrades gracefully on one chunk.
    ThreadPool pool(4);
    SageReader par(source);
    expectSameReads(par.decodeAll(&pool), back);
}

// ---------------------------------------------------------------------
// Parallel decode == sequential decode
// ---------------------------------------------------------------------

TEST(ParallelDecode, MatchesSequentialReadSet)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.nReadProb = 0.05; // Exercise escapes too.
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 9;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    const MemorySource source(archive.bytes);
    SageReader seq(source);
    ASSERT_GT(seq.chunkCount(), 1u);
    const ReadSet expect = seq.decodeAll();

    ThreadPool pool(4);
    SageReader par(source);
    const ReadSet got = par.decodeAll(&pool);
    expectSameReads(got, expect);
}

TEST(ParallelDecode, RestoresPreservedOrder)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 11;
    config.preserveOrder = true;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    ThreadPool pool(4);
    const MemorySource source(archive.bytes);
    SageReader par(source);
    ASSERT_GT(par.chunkCount(), 1u);
    const ReadSet got = par.decodeAll(&pool);
    ASSERT_EQ(got.reads.size(), ds.readSet.reads.size());
    for (size_t i = 0; i < got.reads.size(); i++) {
        EXPECT_EQ(got.reads[i].bases, ds.readSet.reads[i].bases);
        EXPECT_EQ(got.reads[i].quals, ds.readSet.reads[i].quals);
        EXPECT_EQ(got.reads[i].header, ds.readSet.reads[i].header);
    }
}

TEST(ParallelDecode, MatchesSequentialPacked)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 7;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    const MemorySource source(archive.bytes);
    SageReaderOptions dna_only;
    dna_only.dnaOnly = true;
    SageReader seq(source, dna_only);
    const auto expect = seq.decodeAllPacked(OutputFormat::TwoBit);

    ThreadPool pool(4);
    SageReader par(source, dna_only);
    const auto got = par.decodeAllPacked(OutputFormat::TwoBit, &pool);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); i++)
        EXPECT_EQ(got[i], expect[i]) << "read " << i;
}

TEST(ParallelDecode, LongChimericReads)
{
    DatasetSpec spec = makeTinySpec(true);
    spec.sequencer.chimeraProb = 0.4;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 6;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    const MemorySource source(archive.bytes);
    SageReader seq(source);
    const ReadSet expect = seq.decodeAll();

    ThreadPool pool(3);
    SageReader par(source);
    expectSameReads(par.decodeAll(&pool), expect);
}

TEST(ParallelDecode, EveryOptimizationLevel)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    ThreadPool pool(4);
    for (unsigned level = 0; level <= 4; level++) {
        SageConfig config = SageConfig::atLevel(level);
        config.chunkReads = 10;
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);
        const MemorySource source(archive.bytes);
        SageReader seq(source);
        const ReadSet expect = seq.decodeAll();
        SageReader par(source);
        const ReadSet got = par.decodeAll(&pool);
        ASSERT_EQ(got.reads.size(), expect.reads.size())
            << "level " << level;
        for (size_t i = 0; i < got.reads.size(); i++) {
            EXPECT_EQ(got.reads[i].bases, expect.reads[i].bases)
                << "level " << level << " read " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Chunk table plumbing
// ---------------------------------------------------------------------

TEST(ChunkTableSer, RoundTrip)
{
    ChunkTable table;
    table.entries.resize(3);
    table.entries[0].readCount = 64;
    table.entries[1].readCount = 64;
    table.entries[2].readCount = 17;
    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        table.entries[1].offsets[s] = 100 + s;
        table.entries[2].offsets[s] = 100000 + 257 * s;
    }
    const ChunkTable back = ChunkTable::deserialize(table.serialize());
    ASSERT_EQ(back.entries.size(), table.entries.size());
    for (size_t c = 0; c < back.entries.size(); c++) {
        EXPECT_EQ(back.entries[c].readCount,
                  table.entries[c].readCount);
        EXPECT_EQ(back.entries[c].offsets, table.entries[c].offsets);
    }
}

TEST(ChunkTableSer, ChunkedArchiveIsOnlyMarginallyLarger)
{
    // The chunk table + per-chunk alignment padding must stay a small
    // tax relative to the unchunked archive.
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig v1;
    v1.chunkReads = 0;
    SageConfig v2;
    v2.chunkReads = 32;
    const SageArchive a1 = sageCompress(ds.readSet, ds.reference, v1);
    const SageArchive a2 = sageCompress(ds.readSet, ds.reference, v2);
    EXPECT_LT(static_cast<double>(a2.bytes.size()),
              1.05 * static_cast<double>(a1.bytes.size()));
}

} // namespace
} // namespace sage
