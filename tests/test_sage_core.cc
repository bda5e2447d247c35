/**
 * @file
 * Tests for the SAGe core: Algorithm 1 tuning, tuned arrays, and full
 * compress/decompress losslessness across optimization levels,
 * technologies and corner cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/rng.hh"

namespace sage {
namespace {

// ---------------------------------------------------------------------
// Algorithm 1 / tuned arrays
// ---------------------------------------------------------------------

TEST(Tuner, SingleClassForUniformWidths)
{
    Histogram hist;
    hist.add(4, 1000); // Every value needs exactly 4 bits.
    const AssociationTable table = tuneBitCounts(hist);
    ASSERT_EQ(table.widthByRank.size(), 1u);
    EXPECT_EQ(table.widthByRank[0], 4);
}

TEST(Tuner, SplitsSkewedDistribution)
{
    // Paper Property 1: most deltas tiny, rare ones large. The tuner
    // should not charge 16 bits to every value.
    Histogram hist;
    hist.add(2, 100000);
    hist.add(16, 100);
    const AssociationTable table = tuneBitCounts(hist);
    ASSERT_GE(table.widthByRank.size(), 2u);
    // Most frequent class (rank 0) must be the narrow one.
    EXPECT_EQ(table.widthByRank[0], 2);
}

TEST(Tuner, CostBeatsFixedWidth)
{
    Histogram hist;
    Rng rng(21);
    std::vector<uint64_t> values;
    for (int i = 0; i < 50000; i++) {
        // Geometric-ish deltas with a heavy tail.
        uint64_t v = rng.nextGeometric(0.4);
        if (rng.nextBool(0.01))
            v += rng.nextBelow(1 << 14);
        values.push_back(v);
        hist.add(valueBits(v));
    }
    const AssociationTable table = tuneBitCounts(hist);
    const TunedFieldCodec codec(table);
    uint64_t tuned_bits = 0;
    unsigned max_bits = 0;
    for (uint64_t v : values) {
        tuned_bits += codec.costBits(v);
        max_bits = std::max(max_bits, valueBits(v));
    }
    const uint64_t fixed_bits =
        static_cast<uint64_t>(values.size()) * max_bits;
    EXPECT_LT(tuned_bits, fixed_bits);
}

TEST(Tuner, RespectsMaxClasses)
{
    Histogram hist;
    for (unsigned b = 1; b <= 20; b++)
        hist.add(b, 1000 >> (b / 4));
    TunerConfig config;
    config.maxClasses = 3;
    config.epsilon = 0.0; // Force the full search up to maxClasses.
    const AssociationTable table = tuneBitCounts(hist, config);
    EXPECT_LE(table.widthByRank.size(), 3u);
}

TEST(TunedArray, RoundTripRandomValues)
{
    Rng rng(8);
    std::vector<uint64_t> values;
    for (int i = 0; i < 20000; i++)
        values.push_back(rng.nextGeometric(0.3));
    const AssociationTable table = TunedFieldCodec::tuneFor(values);
    TunedArrayEncoder enc(table);
    for (uint64_t v : values)
        enc.append(v);
    auto array = enc.takeArray();
    auto guide = enc.takeGuide();
    TunedArrayDecoder dec(table, BitReader(array), BitReader(guide));
    for (uint64_t v : values)
        ASSERT_EQ(dec.next(), v);
}

TEST(TunedArray, AssociationTableSerialization)
{
    AssociationTable table;
    table.widthByRank = {2, 4, 8, 17};
    std::vector<uint8_t> buf;
    table.serialize(buf);
    size_t pos = 0;
    const AssociationTable back =
        AssociationTable::deserialize(buf, pos);
    EXPECT_EQ(back, table);
    EXPECT_EQ(pos, buf.size());
}

TEST(TunedArray, GuideUsesShortCodesForCommonClass)
{
    // 90% of values need 3 bits, 10% need 12: rank 0 must be width 3.
    std::vector<uint64_t> values;
    Rng rng(31);
    for (int i = 0; i < 10000; i++)
        values.push_back(rng.nextBool(0.9) ? 5 : 3000);
    const AssociationTable table = TunedFieldCodec::tuneFor(values);
    EXPECT_EQ(table.widthByRank[0], valueBits(5));
}

// ---------------------------------------------------------------------
// SAGe parameters header
// ---------------------------------------------------------------------

TEST(SageParams, HeaderRoundTrip)
{
    SageParams params;
    params.numReads = 12345;
    params.consensusLength = 999999;
    params.consensusTwoBit = false;
    params.hasQuality = true;
    params.reorderReads = false;
    params.maxSegments = 3;
    params.modalReadLength = 151;
    params.matchPos.widthByRank = {3, 9};
    params.readLen.widthByRank = {1};
    params.mismatchCount.widthByRank = {2, 5, 9};
    params.mismatchPos.widthByRank = {4};
    params.segPos.widthByRank = {20};
    params.segLen.widthByRank = {12};

    const SageParams back =
        SageParams::deserialize(params.serialize());
    EXPECT_EQ(back.numReads, params.numReads);
    EXPECT_EQ(back.consensusLength, params.consensusLength);
    EXPECT_EQ(back.consensusTwoBit, params.consensusTwoBit);
    EXPECT_EQ(back.hasQuality, params.hasQuality);
    EXPECT_EQ(back.reorderReads, params.reorderReads);
    EXPECT_EQ(back.maxSegments, params.maxSegments);
    EXPECT_EQ(back.modalReadLength, params.modalReadLength);
    EXPECT_EQ(back.matchPos, params.matchPos);
    EXPECT_EQ(back.mismatchCount, params.mismatchCount);
}

// ---------------------------------------------------------------------
// End-to-end losslessness
// ---------------------------------------------------------------------

/** Sorted multiset view of (bases, quals) records. */
std::multiset<std::pair<std::string, std::string>>
recordSet(const ReadSet &rs)
{
    std::multiset<std::pair<std::string, std::string>> set;
    for (const auto &read : rs.reads)
        set.emplace(read.bases, read.quals);
    return set;
}

class SageRoundTrip : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SageRoundTrip, ShortReadsLosslessAtEveryLevel)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config = SageConfig::atLevel(GetParam());
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST_P(SageRoundTrip, LongReadsLosslessAtEveryLevel)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    SageConfig config = SageConfig::atLevel(GetParam());
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

INSTANTIATE_TEST_SUITE_P(OptimizationLevels, SageRoundTrip,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(SageRoundTripExtra, PreserveOrderRestoresExactSequence)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.preserveOrder = true;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    for (size_t i = 0; i < back.reads.size(); i++) {
        EXPECT_EQ(back.reads[i].bases, ds.readSet.reads[i].bases);
        EXPECT_EQ(back.reads[i].quals, ds.readSet.reads[i].quals);
        EXPECT_EQ(back.reads[i].header, ds.readSet.reads[i].header);
    }
}

TEST(SageRoundTripExtra, QualityCanBeDropped)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.keepQuality = false;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    EXPECT_EQ(archive.qualityBytes, 0u);
    const ReadSet back = sageDecompress(archive.bytes);
    for (const auto &read : back.reads)
        EXPECT_TRUE(read.quals.empty());
}

TEST(SageRoundTripExtra, ReadsWithNSurvive)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.nReadProb = 0.2; // Force many N-containing reads.
    const SimulatedDataset ds = synthesizeDataset(spec);
    bool any_n = false;
    for (const auto &read : ds.readSet.reads)
        any_n |= read.bases.find('N') != std::string::npos;
    ASSERT_TRUE(any_n) << "spec should have produced N reads";

    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(SageRoundTripExtra, ClippedReadsSurvive)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.clipProb = 0.3;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(SageRoundTripExtra, ChimericLongReadsSurvive)
{
    DatasetSpec spec = makeTinySpec(true);
    spec.sequencer.chimeraProb = 0.5;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(SageRoundTripExtra, EmptyReadSet)
{
    ReadSet rs;
    rs.name = "empty";
    const std::string consensus(1000, 'A');
    const SageArchive archive = sageCompress(rs, consensus);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_TRUE(back.reads.empty());
}

TEST(SageRoundTripExtra, PackedOutputFormats)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);

    const MemorySource source(archive.bytes);
    SageReader ascii_dec(source);
    const auto ascii = ascii_dec.decodeAllPacked(OutputFormat::Ascii);
    SageReader two_dec(source);
    const auto twobit = two_dec.decodeAllPacked(OutputFormat::TwoBit);
    ASSERT_EQ(ascii.size(), twobit.size());

    // Cross-check: unpacking 2-bit must equal the ASCII bases when the
    // read is ACGT-only.
    for (size_t i = 0; i < ascii.size(); i++) {
        const std::string bases(ascii[i].begin(), ascii[i].end());
        if (bases.find('N') == std::string::npos) {
            EXPECT_EQ(unpackSequence(twobit[i], bases.size(),
                                     OutputFormat::TwoBit),
                      bases);
        }
    }
}

TEST(SageRoundTripExtra, CompressionBeatsTwoBitPacking)
{
    // With redundant sampling (depth > 4), SAGe must beat the trivial
    // 2 bits/base floor on DNA.
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const double dna_ratio =
        static_cast<double>(ds.readSet.dnaBytes())
        / static_cast<double>(archive.dnaBytes);
    EXPECT_GT(dna_ratio, 4.0) << "consensus encoding should beat 4x";
}

TEST(SageRoundTripExtra, HigherLevelsNeverLargerDna)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    double prev = 1e30;
    for (unsigned level = 0; level <= 4; level++) {
        SageConfig config = SageConfig::atLevel(level);
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);
        // Allow 2% slack: O3 can trade position bytes for base bytes.
        EXPECT_LT(static_cast<double>(archive.dnaBytes), prev * 1.02)
            << "level " << level;
        prev = static_cast<double>(archive.dnaBytes);
    }
}

TEST(SageDecoderInfo, StreamSizesAndWorkingSet)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const MemorySource source(archive.bytes);
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source, /*dna_only=*/false,
                             /*verify_checksum=*/true);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    const SageDecoder &decoder = **opened;
    const ArchiveInfo &info = decoder.info();
    EXPECT_EQ(info.params.numReads, ds.readSet.reads.size());
    EXPECT_GT(info.dnaStreamBytes(), 0u);
    EXPECT_LE(info.dnaStreamBytes(), archive.bytes.size());
    // SW working set ~ consensus; tiny relative to Spring-class tools.
    EXPECT_LT(decoder.workingSetBytes(),
              ds.reference.size() + 4096);
}

TEST(SageStreaming, NextYieldsSameAsDecodeAll)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const MemorySource source(archive.bytes);
    SageReader a(source), b(source);
    const ReadSet all = b.decodeAll();
    size_t i = 0;
    while (a.hasNext()) {
        const Read read = a.next();
        ASSERT_LT(i, all.reads.size());
        EXPECT_EQ(read.bases, all.reads[i].bases);
        i++;
    }
    EXPECT_EQ(i, all.reads.size());
}

} // namespace
} // namespace sage
