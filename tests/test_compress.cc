/**
 * @file
 * Tests for the compression substrate: gpzip (general-purpose baseline),
 * the range coder, the quality codec, the stream bundle and the
 * SpringLike genomic baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "compress/gpzip.hh"
#include "compress/quality.hh"
#include "compress/range_coder.hh"
#include "compress/springlike.hh"
#include "compress/streams.hh"
#include "genomics/fastq.hh"
#include "simgen/synthesize.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

std::vector<uint8_t>
randomBytes(Rng &rng, size_t n)
{
    std::vector<uint8_t> data(n);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    return data;
}

// ---------------------------------------------------------------------
// gpzip
// ---------------------------------------------------------------------

TEST(Gpzip, RoundTripText)
{
    const std::string text =
        "the quick brown fox jumps over the lazy dog. "
        "the quick brown fox jumps over the lazy dog again and again.";
    const auto archive = gpzip::compress(text);
    const auto back = gpzip::decompress(archive);
    EXPECT_EQ(std::string(back.begin(), back.end()), text);
}

TEST(Gpzip, RoundTripEmpty)
{
    const auto archive = gpzip::compress(std::string_view(""));
    const auto back = gpzip::decompress(archive);
    EXPECT_TRUE(back.empty());
    EXPECT_EQ(gpzip::originalSize(archive), 0u);
}

TEST(Gpzip, RoundTripRandom)
{
    Rng rng(42);
    const auto data = randomBytes(rng, 100000);
    const auto archive = gpzip::compress(data.data(), data.size());
    EXPECT_EQ(gpzip::decompress(archive), data);
}

TEST(Gpzip, RoundTripHighlyRepetitive)
{
    std::string text;
    for (int i = 0; i < 5000; i++)
        text += "ABCDEFGH";
    const auto archive = gpzip::compress(text);
    // Strong compression expected on pure repetition.
    EXPECT_LT(archive.size(), text.size() / 20);
    const auto back = gpzip::decompress(archive);
    EXPECT_EQ(std::string(back.begin(), back.end()), text);
}

TEST(Gpzip, RoundTripAllByteValues)
{
    std::vector<uint8_t> data;
    for (int rep = 0; rep < 10; rep++)
        for (int b = 0; b < 256; b++)
            data.push_back(static_cast<uint8_t>(b));
    const auto archive = gpzip::compress(data.data(), data.size());
    EXPECT_EQ(gpzip::decompress(archive), data);
}

TEST(Gpzip, MultiBlockParallelRoundTrip)
{
    Rng rng(43);
    // Compressible multi-block payload.
    std::vector<uint8_t> data;
    for (int i = 0; i < 400000; i++)
        data.push_back(static_cast<uint8_t>(rng.nextBelow(8)));
    gpzip::Config config;
    config.blockSize = 64 << 10;
    ThreadPool pool(4);
    const auto archive = gpzip::compress(data.data(), data.size(),
                                         config, &pool);
    EXPECT_EQ(gpzip::decompress(archive, &pool), data);
    // Parallel and serial containers decode identically.
    EXPECT_EQ(gpzip::decompress(archive), data);
}

TEST(Gpzip, CorruptionDetected)
{
    const std::string text = "some data worth protecting, repeated "
                             "some data worth protecting";
    auto archive = gpzip::compress(text);
    archive[archive.size() / 2] ^= 0x40;
    EXPECT_DEATH(
        { auto out = gpzip::decompress(archive); (void)out; }, ".*");
}

TEST(Gpzip, GenomicTextCompresses)
{
    // DNA-like text: ~2-6x is the general-compressor band the paper
    // reports for this class of tools (§2.2).
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const std::string fastq = toFastq(ds.readSet);
    const auto archive = gpzip::compress(fastq);
    const double ratio =
        static_cast<double>(fastq.size()) / archive.size();
    // General-purpose band (paper §2.2: ~2-6x on real data; synthetic
    // headers/qualities compress a bit better).
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 15.0);
}

// ---------------------------------------------------------------------
// Range coder
// ---------------------------------------------------------------------

TEST(RangeCoder, AdaptiveModelRoundTrip)
{
    Rng rng(9);
    std::vector<unsigned> symbols;
    for (int i = 0; i < 50000; i++)
        symbols.push_back(static_cast<unsigned>(
            rng.nextWeighted({80, 10, 6, 3, 1})));

    RangeEncoder enc;
    AdaptiveModel enc_model(5);
    for (unsigned s : symbols)
        enc_model.encode(enc, s);
    const auto bytes = enc.finish();

    RangeDecoder dec(bytes.data(), bytes.size());
    AdaptiveModel dec_model(5);
    for (unsigned s : symbols)
        ASSERT_EQ(dec_model.decode(dec), s);
}

TEST(RangeCoder, SkewedStreamBeatsOneBytePerSymbol)
{
    Rng rng(10);
    RangeEncoder enc;
    AdaptiveModel model(4);
    const int n = 100000;
    for (int i = 0; i < n; i++)
        model.encode(enc, rng.nextBool(0.95) ? 0 : 1 + rng.nextBelow(3));
    const auto bytes = enc.finish();
    EXPECT_LT(bytes.size(), static_cast<size_t>(n) / 8)
        << "strongly skewed stream should cost well under 1 bit/symbol";
}

// ---------------------------------------------------------------------
// Quality codec
// ---------------------------------------------------------------------

std::vector<std::string>
makeQualStrings(size_t reads, size_t len, unsigned levels, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> quals;
    for (size_t r = 0; r < reads; r++) {
        std::string q;
        char cur = 'I';
        for (size_t i = 0; i < len; i++) {
            if (rng.nextBool(0.05))
                cur = static_cast<char>('I' - rng.nextBelow(levels));
            q.push_back(cur);
        }
        quals.push_back(std::move(q));
    }
    return quals;
}

TEST(Quality, RoundTrip)
{
    const auto quals = makeQualStrings(500, 150, 6, 77);
    const QualityArchive archive = compressQuality(quals);
    EXPECT_EQ(decompressQuality(archive), quals);
}

TEST(Quality, RoundTripVariableLengths)
{
    Rng rng(78);
    std::vector<std::string> quals;
    for (int r = 0; r < 300; r++) {
        std::string q;
        const size_t len = 1 + rng.nextBelow(500);
        for (size_t i = 0; i < len; i++)
            q.push_back(static_cast<char>('!' + rng.nextBelow(40)));
        quals.push_back(std::move(q));
    }
    const QualityArchive archive = compressQuality(quals);
    EXPECT_EQ(decompressQuality(archive), quals);
}

TEST(Quality, EmptyInput)
{
    const QualityArchive archive = compressQuality({});
    EXPECT_TRUE(decompressQuality(archive).empty());
}

TEST(Quality, BlockRandomAccessMatchesFullDecode)
{
    const auto quals = makeQualStrings(2000, 150, 6, 79);
    QualityConfig config;
    config.blockChars = 40000; // Force several blocks.
    const QualityArchive archive = compressQuality(quals, config);
    ASSERT_GT(archive.blocks.size(), 2u);

    std::string flat_full;
    for (const auto &q : decompressQuality(archive))
        flat_full += q;
    std::string flat_blocks;
    for (size_t b = 0; b < archive.blocks.size(); b++)
        flat_blocks += decompressQualityBlock(archive, b);
    EXPECT_EQ(flat_blocks, flat_full);
}

TEST(Quality, CompressesBinnedScoresWell)
{
    const auto quals = makeQualStrings(2000, 150, 4, 80);
    const QualityArchive archive = compressQuality(quals);
    const double ratio = static_cast<double>(archive.totalChars())
        / static_cast<double>(archive.compressedBytes());
    // Paper Table 2 band for short-read quality: ~2.8-5.
    EXPECT_GT(ratio, 2.0);
}

TEST(Quality, ZeroBlockCharsIsRejected)
{
    QualityConfig config;
    config.blockChars = 0;
    const auto quals = makeQualStrings(4, 10, 3, 81);
    EXPECT_EXIT({ (void)compressQuality(quals, config); },
                ::testing::ExitedWithCode(1), "blockChars");
    EXPECT_EXIT({ (void)compressQuality(quals, config, 2); },
                ::testing::ExitedWithCode(1), "blockChars");
}

/** Start offset of every chunk of @p chunk_reads reads, plus the end. */
std::vector<uint64_t>
chunkStarts(const std::vector<std::string> &quals, uint64_t chunk_reads)
{
    std::vector<uint64_t> starts;
    uint64_t chars = 0;
    for (size_t r = 0; r < quals.size(); r++) {
        if (r % chunk_reads == 0)
            starts.push_back(chars);
        chars += quals[r].size();
    }
    starts.push_back(chars);
    return starts;
}

/**
 * The chunk-aligned block rule, checked on @p archive: every block
 * holds at most blockChars chars; a block that ends before blockChars
 * and before the stream end ends at a chunk start and holds at least
 * blockChars / 4 chars; and no chunk start at or past that quarter
 * lies inside a block. The archive must also round-trip.
 */
void
expectChunkAlignedBlocks(const std::vector<std::string> &quals,
                         const QualityArchive &archive,
                         uint64_t block_chars, uint64_t chunk_reads)
{
    const std::vector<uint64_t> starts = chunkStarts(quals, chunk_reads);
    const uint64_t total = starts.back();
    const uint64_t quarter = std::max<uint64_t>(1, block_chars / 4);
    ASSERT_EQ(archive.blocks.size(), archive.blockChars.size());
    uint64_t begin = 0;
    for (size_t b = 0; b < archive.blockChars.size(); b++) {
        const uint64_t len = archive.blockChars[b];
        const uint64_t end = begin + len;
        const std::string label = "block " + std::to_string(b) + " [" +
                                  std::to_string(begin) + ", " +
                                  std::to_string(end) + ")";
        ASSERT_GT(len, 0u) << label;
        EXPECT_LE(len, block_chars) << label;
        const bool at_start =
            std::binary_search(starts.begin(), starts.end(), end);
        if (len < block_chars && end < total) {
            EXPECT_TRUE(at_start) << label;
            EXPECT_GE(len, quarter) << label;
        }
        for (const uint64_t start : starts)
            EXPECT_FALSE(start >= begin + quarter && start < end)
                << label << " straddles chunk start " << start;
        begin = end;
    }
    EXPECT_EQ(begin, total);
    EXPECT_EQ(decompressQuality(archive), quals);
}

/** Index of the chunk holding quality char @p at. */
size_t
chunkOf(const std::vector<uint64_t> &starts, uint64_t at)
{
    return static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), at) -
        starts.begin() - 1);
}

TEST(Quality, BlocksLieInsideOneChunkWhenChunksHoldAQuarterBlock)
{
    Rng rng(82);
    std::vector<std::string> quals;
    for (int r = 0; r < 1200; r++) {
        std::string q(60 + rng.nextBelow(180), 'F');
        for (char &c : q)
            if (rng.nextBool(0.1))
                c = static_cast<char>('#' + rng.nextBelow(6));
        quals.push_back(std::move(q));
    }
    QualityConfig config;
    config.blockChars = 40000;
    const uint64_t chunk_reads = 100;  // About 15,000 chars a chunk.
    const QualityArchive archive = compressQuality(quals, config, chunk_reads);
    expectChunkAlignedBlocks(quals, archive, config.blockChars, chunk_reads);

    const std::vector<uint64_t> starts = chunkStarts(quals, chunk_reads);
    const size_t chunks = starts.size() - 1;
    for (size_t c = 0; c < chunks; c++)
        ASSERT_GE(starts[c + 1] - starts[c], config.blockChars / 4);
    ASSERT_EQ(archive.blocks.size(), chunks)
        << "every chunk is under blockChars: one block each";
    uint64_t begin = 0;
    for (const uint64_t len : archive.blockChars) {
        EXPECT_EQ(chunkOf(starts, begin), chunkOf(starts, begin + len - 1));
        begin += len;
    }
}

TEST(Quality, ChunksUnderAQuarterBlockShareABlock)
{
    const auto quals = makeQualStrings(2000, 150, 6, 83);
    QualityConfig config;
    config.blockChars = 40000;
    const uint64_t chunk_reads = 10;  // 1,500 chars a chunk.
    const QualityArchive archive = compressQuality(quals, config, chunk_reads);
    expectChunkAlignedBlocks(quals, archive, config.blockChars, chunk_reads);
    // Each block closes at the first chunk start at or past 10,000
    // chars: 7 chunks (10,500 chars), and the tail.
    ASSERT_EQ(archive.blocks.size(), 29u);
    for (size_t b = 0; b + 1 < archive.blocks.size(); b++)
        EXPECT_EQ(archive.blockChars[b], 10500u) << "block " << b;
}

TEST(Quality, ChunkLargerThanABlockSplitsAtBlockChars)
{
    const auto quals = makeQualStrings(2000, 150, 6, 84);
    QualityConfig config;
    config.blockChars = 40000;
    const uint64_t chunk_reads = 1000;  // 150,000 chars a chunk.
    const QualityArchive archive = compressQuality(quals, config, chunk_reads);
    expectChunkAlignedBlocks(quals, archive, config.blockChars, chunk_reads);
    // 40,000 x 3 and the 30,000-char rest, per chunk.
    const std::vector<uint64_t> want = {40000, 40000, 40000, 30000,
                                        40000, 40000, 40000, 30000};
    EXPECT_EQ(archive.blockChars, want);
}

TEST(Quality, WithoutChunksTheLayoutIsUnchanged)
{
    const auto quals = makeQualStrings(2000, 150, 6, 85);
    QualityConfig config;
    config.blockChars = 40000;
    const std::vector<uint8_t> fixed = packQuality(compressQuality(quals));
    EXPECT_EQ(packQuality(compressQuality(quals, {}, 0)), fixed);
    const QualityArchive small = compressQuality(quals, config);
    EXPECT_EQ(packQuality(compressQuality(quals, config, 0)),
              packQuality(small));
    // A chunk as large as the input has no inner boundary either.
    EXPECT_EQ(packQuality(compressQuality(quals, config, quals.size())),
              packQuality(small));
    ASSERT_EQ(small.blocks.size(), 8u);
    for (size_t b = 0; b + 1 < small.blocks.size(); b++)
        EXPECT_EQ(small.blockChars[b], config.blockChars);
}

TEST(Quality, EmptyQualityIsOneEmptyBlockWithChunks)
{
    for (const std::vector<std::string> &quals :
         {std::vector<std::string>{},
          std::vector<std::string>(10, std::string())}) {
        const QualityArchive archive = compressQuality(quals, {}, 4);
        ASSERT_EQ(archive.blocks.size(), 1u);
        EXPECT_EQ(archive.blockChars[0], 0u);
        EXPECT_EQ(decompressQuality(archive), quals);
        EXPECT_EQ(packQuality(archive), packQuality(compressQuality(quals)));
    }
}

TEST(Quality, ChunkAlignedStreamStaysNearTheFixedLayoutSize)
{
    // Restore-shaped: 13,978 reads of 150 chars in chunks of 2,048
    // reads, default 1 MiB blocks (2 fixed blocks, 7 aligned ones).
    const auto quals = makeQualStrings(13978, 150, 6, 86);
    const QualityArchive aligned = compressQuality(quals, {}, 2048);
    const QualityArchive fixed = compressQuality(quals);
    EXPECT_EQ(fixed.blocks.size(), 2u);
    EXPECT_EQ(aligned.blocks.size(), 7u);
    expectChunkAlignedBlocks(quals, aligned, QualityConfig{}.blockChars,
                             2048);
    const double aligned_bytes = packQuality(aligned).size();
    const double fixed_bytes = packQuality(fixed).size();
    EXPECT_LT(aligned_bytes, fixed_bytes * 1.005);
}

/**
 * @p n chars over an alphabet of @p symbols distinct chars (byte
 * values spread over 0..255), uniform or skewed towards the first
 * symbols, cut into 100-char reads.
 */
std::vector<std::string>
alphabetQuals(unsigned symbols, bool skewed, size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> quals;
    std::string q;
    for (size_t i = 0; i < n; i++) {
        // Every symbol once first, so each is in the alphabet.
        unsigned s = i < symbols
                         ? static_cast<unsigned>(i)
                         : static_cast<unsigned>(rng.nextBelow(symbols));
        if (skewed && i >= symbols)
            s = static_cast<unsigned>(
                std::min<uint64_t>(rng.nextGeometric(0.7), symbols - 1));
        q.push_back(static_cast<char>((s * 255u) / std::max(1u, symbols - 1)));
        if (q.size() == 100) {
            quals.push_back(std::move(q));
            q.clear();
        }
    }
    if (!q.empty())
        quals.push_back(std::move(q));
    return quals;
}

TEST(Quality, RoundTripOverAlphabetSizes)
{
    // A context's total starts at the alphabet size and gains 32 per
    // coded symbol, so about 2,050 visits pass 2^16 and halve it. The
    // skewed inputs revisit one context far more often than that in
    // each of their two blocks; the uniform ones give each of the
    // 4 * symbols contexts about 2,200 visits in their single block.
    for (const unsigned symbols : {1u, 2u, 4u, 12u, 41u, 94u, 256u}) {
        for (const bool skewed : {true, false}) {
            const size_t n = skewed ? 60000 : size_t{8800} * symbols;
            const auto quals = alphabetQuals(symbols, skewed, n,
                                             symbols * 2 + skewed);
            QualityConfig config;
            config.blockChars = skewed ? 30000 : n;
            const QualityArchive archive = compressQuality(quals, config);
            const std::string label = std::to_string(symbols) +
                                      (skewed ? " skewed" : " uniform");
            ASSERT_EQ(archive.alphabet.size(), symbols) << label;
            ASSERT_EQ(decompressQuality(archive), quals) << label;
            if (archive.blocks.size() == 1)
                continue;
            std::string flat;
            for (const std::string &q : quals)
                flat += q;
            std::string blocks;
            for (size_t b = 0; b < archive.blocks.size(); b++)
                blocks += decompressQualityBlock(archive, b);
            EXPECT_EQ(blocks, flat) << label;
        }
    }
}

// ---------------------------------------------------------------------
// Stream bundle
// ---------------------------------------------------------------------

TEST(StreamBundle, RoundTrip)
{
    StreamBundle bundle;
    bundle.stream("alpha") = {1, 2, 3};
    bundle.stream("beta") = {};
    bundle.stream("gamma") = std::vector<uint8_t>(1000, 0xaa);
    const auto bytes = bundle.serialize();
    const StreamBundle back = StreamBundle::deserialize(bytes);
    EXPECT_EQ(back.stream("alpha"), bundle.stream("alpha"));
    EXPECT_EQ(back.stream("beta"), bundle.stream("beta"));
    EXPECT_EQ(back.stream("gamma"), bundle.stream("gamma"));
    EXPECT_EQ(back.totalBytes(), bundle.totalBytes());
}

TEST(StreamBundle, CorruptionDetected)
{
    StreamBundle bundle;
    bundle.stream("data") = std::vector<uint8_t>(100, 7);
    auto bytes = bundle.serialize();
    bytes[10] ^= 1;
    EXPECT_DEATH(
        { auto b = StreamBundle::deserialize(bytes); (void)b; }, ".*");
}

// ---------------------------------------------------------------------
// SpringLike
// ---------------------------------------------------------------------

std::multiset<std::pair<std::string, std::string>>
recordSet(const ReadSet &rs)
{
    std::multiset<std::pair<std::string, std::string>> set;
    for (const auto &read : rs.reads)
        set.emplace(read.bases, read.quals);
    return set;
}

TEST(SpringLike, ShortReadRoundTrip)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    const auto back = springlike::decompress(result.archive);
    EXPECT_EQ(recordSet(back.readSet), recordSet(ds.readSet));
}

TEST(SpringLike, LongReadRoundTrip)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    const auto back = springlike::decompress(result.archive);
    EXPECT_EQ(recordSet(back.readSet), recordSet(ds.readSet));
}

TEST(SpringLike, PreserveOrderExact)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    springlike::Config config;
    config.preserveOrder = true;
    const auto result =
        springlike::compress(ds.readSet, ds.reference, config);
    const auto back = springlike::decompress(result.archive);
    ASSERT_EQ(back.readSet.reads.size(), ds.readSet.reads.size());
    for (size_t i = 0; i < back.readSet.reads.size(); i++)
        EXPECT_EQ(back.readSet.reads[i].bases,
                  ds.readSet.reads[i].bases);
}

TEST(SpringLike, BeatsGpzipOnDna)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const auto spring = springlike::compress(ds.readSet, ds.reference);

    std::string dna;
    for (const auto &read : ds.readSet.reads) {
        dna += read.bases;
        dna.push_back('\n');
    }
    const auto gp = gpzip::compress(dna);
    EXPECT_LT(spring.dnaBytes, gp.size())
        << "genomic compressor must beat the general-purpose one "
           "(paper §2.2)";
}

TEST(SpringLike, ReportsTimingSplit)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    EXPECT_GT(result.mapSeconds, 0.0);
    EXPECT_GT(result.encodeSeconds, 0.0);
    EXPECT_GT(result.streamSizes.size(), 5u);
}

TEST(SpringLike, WorkingSetLargerThanConsensus)
{
    // The decode working set includes backend streams — this is the
    // resource-heaviness property the paper attributes to (N)Spr.
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    const auto back = springlike::decompress(result.archive);
    EXPECT_GT(back.workingSetBytes, ds.reference.size());
}

} // namespace
} // namespace sage
