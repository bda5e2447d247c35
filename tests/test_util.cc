/**
 * @file
 * Unit tests for the util substrate: bit I/O, prefix codes, histograms,
 * CRC, varints, RNG distributions, tables and the thread pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>

#include "util/bitio.hh"
#include "util/cpu.hh"
#include "util/crc32.hh"
#include "util/histogram.hh"
#include "util/prefix_code.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/varint.hh"

namespace sage {
namespace {

TEST(BitIo, SingleBitsRoundTrip)
{
    BitWriter bw;
    const std::vector<bool> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
    for (bool b : bits)
        bw.writeBit(b);
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (bool b : bits)
        EXPECT_EQ(br.readBit(), b);
}

TEST(BitIo, MixedWidthFieldsRoundTrip)
{
    BitWriter bw;
    Rng rng(7);
    std::vector<std::pair<uint64_t, unsigned>> fields;
    for (int i = 0; i < 10000; i++) {
        const unsigned width = 1 + rng.nextBelow(57);
        const uint64_t value = rng.next() & ((uint64_t(1) << width) - 1);
        fields.emplace_back(value, width);
        bw.writeBits(value, width);
    }
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (const auto &[value, width] : fields)
        ASSERT_EQ(br.readBits(width), value);
}

TEST(BitIo, UnaryCodes)
{
    BitWriter bw;
    for (unsigned n = 0; n < 20; n++)
        bw.writeUnary(n);
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (unsigned n = 0; n < 20; n++)
        EXPECT_EQ(br.readUnary(), n);
}

TEST(BitIo, BitCountTracksWrites)
{
    BitWriter bw;
    bw.writeBits(5, 3);
    EXPECT_EQ(bw.bitCount(), 3u);
    bw.writeBits(1, 11);
    EXPECT_EQ(bw.bitCount(), 14u);
}

TEST(BitIo, ZeroWidthFieldIsNoop)
{
    BitWriter bw;
    bw.writeBits(0xff, 0);
    EXPECT_EQ(bw.bitCount(), 0u);
}

TEST(BitIo, AlignByte)
{
    BitWriter bw;
    bw.writeBit(true);
    bw.alignByte();
    EXPECT_EQ(bw.bitCount(), 8u);
    bw.writeBits(0xab, 8);
    const auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[1], 0xab);
}

TEST(PrefixCode, RoundTripSkewed)
{
    std::vector<uint64_t> freqs = {1000, 500, 100, 50, 10, 5, 1, 1};
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    BitWriter bw;
    std::vector<unsigned> symbols;
    Rng rng(3);
    for (int i = 0; i < 5000; i++) {
        const unsigned s = rng.nextWeighted(
            std::vector<double>(freqs.begin(), freqs.end()));
        symbols.push_back(s);
        code.encode(bw, s);
    }
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (unsigned s : symbols)
        ASSERT_EQ(code.decode(br), s);
}

TEST(PrefixCode, FrequentSymbolsGetShorterCodes)
{
    std::vector<uint64_t> freqs = {1000, 10, 10, 10};
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    EXPECT_LE(code.lengths()[0], code.lengths()[1]);
    EXPECT_LE(code.lengths()[0], code.lengths()[3]);
}

TEST(PrefixCode, SingleSymbolAlphabet)
{
    std::vector<uint64_t> freqs = {42};
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    BitWriter bw;
    code.encode(bw, 0);
    code.encode(bw, 0);
    const auto bytes = bw.take();
    BitReader br(bytes);
    EXPECT_EQ(code.decode(br), 0u);
    EXPECT_EQ(code.decode(br), 0u);
}

TEST(PrefixCode, LengthsRebuildIdentically)
{
    std::vector<uint64_t> freqs(64);
    Rng rng(11);
    for (auto &f : freqs)
        f = rng.nextBelow(10000) + 1;
    const PrefixCode original = PrefixCode::fromFrequencies(freqs);
    const PrefixCode rebuilt = PrefixCode::fromLengths(original.lengths());

    BitWriter bw;
    for (unsigned s = 0; s < 64; s++)
        original.encode(bw, s);
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (unsigned s = 0; s < 64; s++)
        ASSERT_EQ(rebuilt.decode(br), s);
}

TEST(PrefixCode, KraftInequalityHolds)
{
    std::vector<uint64_t> freqs(300);
    Rng rng(5);
    for (auto &f : freqs)
        f = 1 + rng.nextBelow(1u << 20);
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    double kraft = 0;
    for (uint8_t len : code.lengths()) {
        ASSERT_LE(len, 15);
        if (len > 0)
            kraft += std::pow(2.0, -double(len));
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(Crc32, KnownVector)
{
    // CRC-32 of "123456789" is the classic check value 0xCBF43926.
    const std::string s = "123456789";
    EXPECT_EQ(Crc32::of(reinterpret_cast<const uint8_t *>(s.data()),
                        s.size()),
              0xcbf43926u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> data(1000);
    Rng rng(13);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    Crc32 crc;
    crc.update(data.data(), 400);
    crc.update(data.data() + 400, 600);
    EXPECT_EQ(crc.value(), Crc32::of(data));
}

/** Bytewise-table reference CRC-32, independent of util/crc32.cc: the
 *  dispatched paths must reproduce it exactly. */
uint32_t
referenceCrc32(const uint8_t *data, size_t size)
{
    static const std::vector<uint32_t> table = [] {
        std::vector<uint32_t> t(256);
        for (uint32_t i = 0; i < 256; i++) {
            uint32_t c = i;
            for (int k = 0; k < 8; k++)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < size; i++)
        c = table[(c ^ data[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::vector<uint8_t>
randomBytes(size_t size, uint64_t seed)
{
    std::vector<uint8_t> data(size);
    Rng rng(seed);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    return data;
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndOffset)
{
    // Every length across the short-input cutoff, the 16-byte block
    // tails and several 64-byte fold steps, from every alignment.
    const std::vector<uint8_t> data = randomBytes(1024 + 16, 21);
    for (size_t offset = 0; offset < 16; offset++) {
        for (size_t len = 0; len <= 1024; len++) {
            const uint8_t *p = data.data() + offset;
            ASSERT_EQ(Crc32::of(p, len), referenceCrc32(p, len))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Crc32, MatchesReferenceOnLargeRandomLengths)
{
    const size_t kMax = size_t{1} << 20;
    const std::vector<uint8_t> data = randomBytes(kMax, 34);
    Rng rng(55);
    std::vector<size_t> lengths = {kMax, kMax - 1, 358 * 1024};
    for (int i = 0; i < 16; i++)
        lengths.push_back(rng.nextBelow(kMax + 1));
    for (size_t len : lengths) {
        const size_t offset = rng.nextBelow(kMax - len + 1);
        const uint8_t *p = data.data() + offset;
        ASSERT_EQ(Crc32::of(p, len), referenceCrc32(p, len))
            << "offset " << offset << " length " << len;
    }

    // Constant runs: the initial all-ones state must fold in right.
    for (uint8_t fill : {uint8_t{0x00}, uint8_t{0xff}}) {
        const std::vector<uint8_t> run(70000, fill);
        EXPECT_EQ(Crc32::of(run), referenceCrc32(run.data(), run.size()))
            << "fill " << int(fill);
    }
}

TEST(Crc32, IncrementalRandomSplitsMatchReference)
{
    const std::vector<uint8_t> data = randomBytes(256 * 1024, 89);
    const uint32_t expected = referenceCrc32(data.data(), data.size());
    Rng rng(144);
    for (int trial = 0; trial < 64; trial++) {
        Crc32 crc;
        size_t at = 0;
        while (at < data.size()) {
            // Mostly short pieces (under the 64-byte fold cutoff, odd
            // sizes that leave the next call unaligned), some long.
            size_t piece = rng.nextBool(0.7) ? rng.nextBelow(64)
                                             : rng.nextBelow(20000);
            piece = std::min(piece, data.size() - at);
            crc.update(data.data() + at, piece);
            at += piece;
        }
        ASSERT_EQ(crc.value(), expected) << "trial " << trial;
    }
}

TEST(Crc32, PathNameNamesTheDispatchedPath)
{
    const std::string name = crc32PathName();
    EXPECT_TRUE(name == "pclmul" || name == "slice-by-8") << name;
    if (simdForcedScalar()) {
        EXPECT_EQ(name, "slice-by-8");
    }
}

TEST(Varint, RoundTripEdges)
{
    std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                    UINT32_MAX, UINT64_MAX};
    std::vector<uint8_t> buf;
    for (uint64_t v : values)
        putVarint(buf, v);
    size_t pos = 0;
    for (uint64_t v : values)
        EXPECT_EQ(getVarint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
}

TEST(Varint, ZigzagRoundTrip)
{
    for (int64_t v : {int64_t(0), int64_t(-1), int64_t(1),
                      int64_t(-1000000), int64_t(1000000),
                      INT64_MIN, INT64_MAX}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
    // Small magnitudes map to small codes.
    EXPECT_LT(zigzagEncode(-3), 8u);
}

TEST(Rng, Deterministic)
{
    Rng a(99), b(99);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds)
{
    Rng rng(1);
    for (int i = 0; i < 10000; i++) {
        const uint64_t v = rng.nextBelow(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, GeometricMeanApprox)
{
    Rng rng(2);
    const double p = 0.25;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(rng.nextGeometric(p));
    const double mean = sum / n;
    // E[X] = (1-p)/p = 3.
    EXPECT_NEAR(mean, 3.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(4);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++) {
        const double x = rng.nextNormal(5.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, WeightedPrefersHeavyBuckets)
{
    Rng rng(6);
    std::vector<double> w = {0.9, 0.05, 0.05};
    int heavy = 0;
    for (int i = 0; i < 10000; i++)
        heavy += rng.nextWeighted(w) == 0;
    EXPECT_GT(heavy, 8500);
}

TEST(Histogram, BasicCountsAndQuantiles)
{
    Histogram h;
    h.add(1, 50);
    h.add(2, 30);
    h.add(8, 20);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
    EXPECT_EQ(h.quantileKey(0.5), 1u);
    EXPECT_EQ(h.quantileKey(0.81), 8u);
    EXPECT_EQ(h.cumulative(2), 80u);
    EXPECT_NEAR(h.mean(), (50 * 1 + 30 * 2 + 20 * 8) / 100.0, 1e-9);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(5), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
}

TEST(LatencyHistogram, QuantilesWithinBucketError)
{
    LatencyHistogram h;
    // 90 fast samples at ~1 ms, 10 slow at ~100 ms.
    for (int i = 0; i < 90; i++)
        h.record(0.001);
    for (int i = 0; i < 10; i++)
        h.record(0.100);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.meanSeconds(), (90 * 0.001 + 10 * 0.100) / 100.0,
                1e-9);
    EXPECT_DOUBLE_EQ(h.maxSeconds(), 0.100);
    // Log-spaced buckets: quantiles land at a bucket upper edge, never
    // more than ~25% above the true value, never below it.
    EXPECT_GE(h.quantileSeconds(0.50), 0.001);
    EXPECT_LE(h.quantileSeconds(0.50), 0.00130);
    EXPECT_GE(h.quantileSeconds(0.99), 0.100);
    EXPECT_LE(h.quantileSeconds(0.99), 0.130);
    EXPECT_LE(h.quantileSeconds(0.50), h.quantileSeconds(0.99));
}

TEST(LatencyHistogram, EmptyZeroAndExtremeSamplesAreSafe)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantileSeconds(0.99), 0.0);
    EXPECT_DOUBLE_EQ(h.meanSeconds(), 0.0);

    h.record(0.0);
    h.record(-1.0);         // Clamped to zero.
    h.record(1e-9);         // Sub-microsecond.
    h.record(500.0);        // Beyond the top octave: overflow bucket.
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.maxSeconds(), 500.0);
    // Overflow-bucket quantiles report the exact max (the bucket has
    // no upper edge), preserving the never-underreport guarantee.
    EXPECT_DOUBLE_EQ(h.quantileSeconds(1.0), 500.0);
}

TEST(LatencyHistogram, MergeAccumulates)
{
    LatencyHistogram a, b;
    for (int i = 0; i < 50; i++)
        a.record(0.002);
    for (int i = 0; i < 50; i++)
        b.record(0.050);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.maxSeconds(), 0.050);
    EXPECT_GE(a.quantileSeconds(0.99), 0.050);
    EXPECT_NEAR(a.meanSeconds(), (50 * 0.002 + 50 * 0.050) / 100.0,
                1e-9);
}

TEST(ThreadPool, ParallelForCoversAll)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitDrainsAllTasks)
{
    ThreadPool pool(8);
    std::atomic<int> counter{0};
    for (int i = 0; i < 500; i++)
        pool.submit([&] { counter++; });
    pool.wait();
    EXPECT_EQ(counter.load(), 500);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    const std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::timesFactor(2.5, 1), "2.5x");
    EXPECT_EQ(TextTable::percent(0.123, 1), "12.3%");
}

} // namespace
} // namespace sage
