/**
 * @file
 * Tests for the architecture substrate: DRAM/SSD bandwidth models, FTL
 * layout invariants and GC, SAGe device commands, the hardware model
 * (Table 1), the GenStore ISF, and the pipeline flow-shop model.
 */

#include <gtest/gtest.h>

#include "accel/genstore.hh"
#include "accel/mappers.hh"
#include "compress/streams.hh"
#include "dram/dram.hh"
#include "hw/sage_hw.hh"
#include "pipeline/pipeline.hh"
#include "simgen/synthesize.hh"
#include "ssd/device_array.hh"
#include "ssd/ftl.hh"
#include "ssd/nand.hh"
#include "ssd/sage_device.hh"
#include "core/sage.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"

namespace sage {
namespace {

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

TEST(Dram, HostBeatsSsdInternalBandwidth)
{
    const DramModel host = DramModel::hostDdr4();
    const DramModel internal = DramModel::ssdInternal();
    // Paper §3.2: host has 8 channels; SSD DRAM has one.
    EXPECT_GT(host.peakBandwidth(), internal.peakBandwidth() * 10);
}

TEST(Dram, RandomSlowerThanSequential)
{
    const DramModel model = DramModel::hostDdr4();
    EXPECT_GT(model.randomSeconds(1 << 30),
              model.sequentialSeconds(1 << 30));
}

TEST(Dram, EnergyScalesWithBusyTime)
{
    const DramModel model = DramModel::hostDdr4();
    EXPECT_GT(model.energyJoules(10.0, 5.0),
              model.energyJoules(10.0, 1.0));
}

// ---------------------------------------------------------------------
// SSD model
// ---------------------------------------------------------------------

TEST(Ssd, StripedBandwidthScalesWithChannels)
{
    const SsdModel ssd = SsdModel::pciePerformance();
    EXPECT_NEAR(ssd.internalReadBandwidth(),
                ssd.channelReadBandwidth() * ssd.config().channels,
                1.0);
    EXPECT_GT(ssd.internalReadBandwidth(),
              ssd.singleChannelReadBandwidth() * 7.9);
}

TEST(Ssd, PcieFasterThanSata)
{
    EXPECT_GT(SsdModel::pciePerformance().externalBandwidth(),
              SsdModel::sataCost().externalBandwidth() * 5);
}

TEST(Ssd, WriteSlowerThanRead)
{
    const SsdModel ssd = SsdModel::pciePerformance();
    EXPECT_GT(ssd.internalWriteSeconds(1 << 30),
              ssd.internalReadSeconds(1 << 30));
}

// ---------------------------------------------------------------------
// FTL
// ---------------------------------------------------------------------

NandConfig
tinyNand()
{
    NandConfig config;
    config.channels = 4;
    config.diesPerChannel = 1;
    config.planesPerDie = 1;
    config.pagesPerBlock = 8;
    config.blocksPerPlane = 32;
    return config;
}

TEST(Ftl, GenomicWritesStripeRoundRobin)
{
    SageFtl ftl(tinyNand());
    const uint64_t lpn = ftl.writeGenomic(16);
    for (uint64_t p = 0; p < 16; p++) {
        const auto ppa = ftl.translate(lpn + p);
        ASSERT_TRUE(ppa.has_value());
        EXPECT_EQ(ppa->channel, p % 4);
    }
    EXPECT_TRUE(ftl.genomicLayoutAligned());
}

TEST(Ftl, GenomicPagesShareOffsets)
{
    SageFtl ftl(tinyNand());
    ftl.writeGenomic(32);
    EXPECT_TRUE(ftl.genomicLayoutAligned());
    // Rows of 4 pages must share page offsets (multi-plane invariant).
    for (uint64_t row = 0; row < 8; row++) {
        const auto first = ftl.translate(row * 4);
        for (uint64_t ch = 1; ch < 4; ch++) {
            const auto ppa = ftl.translate(row * 4 + ch);
            ASSERT_TRUE(ppa.has_value());
            EXPECT_EQ(ppa->page, first->page) << "row " << row;
        }
    }
}

TEST(Ftl, NormalAndGenomicCoexist)
{
    SageFtl ftl(tinyNand());
    const uint64_t g = ftl.writeGenomic(8);
    const uint64_t n = ftl.writeNormal(8);
    EXPECT_TRUE(ftl.isGenomic(g));
    EXPECT_FALSE(ftl.isGenomic(n));
    EXPECT_TRUE(ftl.genomicLayoutAligned());
}

TEST(Ftl, TrimInvalidatesMappings)
{
    SageFtl ftl(tinyNand());
    const uint64_t lpn = ftl.writeGenomic(8);
    ftl.trim(lpn, 4);
    EXPECT_FALSE(ftl.translate(lpn).has_value());
    EXPECT_TRUE(ftl.translate(lpn + 4).has_value());
}

TEST(Ftl, GroupedGcPreservesAlignment)
{
    SageFtl ftl(tinyNand());
    // Fill several rows, punch holes, then force GC.
    const uint64_t a = ftl.writeGenomic(64);
    ftl.writeGenomic(64);
    ftl.trim(a, 64); // First object entirely dead.
    const unsigned before = ftl.minFreeBlocksPerChannel();
    ftl.collectGarbage(before + 2);
    EXPECT_GE(ftl.minFreeBlocksPerChannel(), before + 2);
    EXPECT_TRUE(ftl.genomicLayoutAligned());
    EXPECT_GT(ftl.stats().erases, 0u);
}

TEST(Ftl, GcRewritesSurvivingPages)
{
    SageFtl ftl(tinyNand());
    const uint64_t a = ftl.writeGenomic(32);
    // Kill every other row: survivors must be rewritten by GC.
    for (uint64_t p = 0; p < 32; p += 8)
        ftl.trim(a + p, 4);
    ftl.collectGarbage(ftl.minFreeBlocksPerChannel() + 1);
    EXPECT_TRUE(ftl.genomicLayoutAligned());
    for (uint64_t p = 4; p < 32; p += 8) {
        for (uint64_t i = 0; i < 4; i++)
            EXPECT_TRUE(ftl.translate(a + p + i).has_value());
    }
    EXPECT_GT(ftl.stats().gcWrites, 0u);
    EXPECT_GT(ftl.stats().writeAmplification(), 1.0);
}

// ---------------------------------------------------------------------
// SAGe device (interface commands)
// ---------------------------------------------------------------------

TEST(SageDevice, WriteThenReadRoundTrip)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);

    SageDevice device;
    device.sageWrite("rs", archive);
    EXPECT_EQ(device.fileBytes("rs"), archive.bytes.size());

    const SageReadResult result =
        device.sageRead("rs", OutputFormat::Ascii);
    ASSERT_EQ(result.packedReads.size(), ds.readSet.reads.size());
    EXPECT_GT(result.nandSeconds, 0.0);
    EXPECT_GT(result.linkSeconds, 0.0);
    EXPECT_EQ(result.compressedBytes, archive.bytes.size());
    EXPECT_GT(result.deliveredBytes, 0u);
    EXPECT_TRUE(device.ftl().genomicLayoutAligned());
}

TEST(SageDevice, InStorageModeShipsDecompressedBytes)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);

    SageDevice host_side(SsdModel::pciePerformance(),
                         SageIntegration::HostAttached);
    SageDevice in_storage(SsdModel::pciePerformance(),
                          SageIntegration::InStorage);
    host_side.sageWrite("rs", archive);
    in_storage.sageWrite("rs", archive);

    const auto host_result =
        host_side.sageRead("rs", OutputFormat::TwoBit);
    const auto ssd_result =
        in_storage.sageRead("rs", OutputFormat::TwoBit);
    // In-storage mode moves (larger) decompressed data over the link.
    EXPECT_GT(ssd_result.linkSeconds, host_result.linkSeconds);
}

TEST(SageDevice, ConventionalFilesWork)
{
    SageDevice device;
    std::vector<uint8_t> blob(100000, 0x5a);
    device.write("baseline.gz", blob);
    EXPECT_EQ(device.read("baseline.gz"), blob);
    EXPECT_GT(device.conventionalReadSeconds("baseline.gz"), 0.0);
    device.remove("baseline.gz");
}

TEST(SageDevice, ReadSurvivesRemove)
{
    // read() returns a copy, so the bytes stay valid after the file
    // is deleted (the old by-reference API dangled here).
    SageDevice device;
    const std::vector<uint8_t> blob(4096, 0x3c);
    device.write("f", blob);
    const std::vector<uint8_t> copy = device.read("f");
    device.remove("f");
    EXPECT_EQ(copy, blob);
}

TEST(SageDevice, ChunkExtentsCoverEveryChunk)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 200; // Several chunks.
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    SageDevice device;
    device.sageWrite("rs", archive);
    const auto extents = device.sageChunkExtents("rs");

    const MemorySource source(archive.bytes);
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source, /*dna_only=*/true);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    const SageDecoder &decoder = **opened;
    ASSERT_EQ(extents.size(), decoder.chunkCount());
    const auto chunk_bytes = decoder.chunkCompressedBytes();

    uint64_t prev_first = 0;
    for (size_t c = 0; c < extents.size(); c++) {
        EXPECT_EQ(extents[c].bytes, chunk_bytes[c]) << "chunk " << c;
        EXPECT_GT(extents[c].lpnCount, 0u);
        // The covering span stays inside the stored file's page range
        // (this archive is the only object, so hostWrites == its page
        // count) and advances with the chunk index.
        EXPECT_GE(extents[c].firstLpn, prev_first);
        EXPECT_LE(extents[c].firstLpn + extents[c].lpnCount,
                  device.ftl().stats().hostWrites);
        prev_first = extents[c].firstLpn;
        // Every page of the extent translates and sits in the genomic
        // striped zone.
        const auto ppas = device.ftl().translateRange(
            extents[c].firstLpn, extents[c].lpnCount);
        for (const auto &ppa : ppas)
            EXPECT_TRUE(ppa.has_value());
        EXPECT_GE(device.ftl().channelsSpanned(extents[c].firstLpn,
                                               extents[c].lpnCount),
                  1u);
    }
}

TEST(SageDevice, V1ArchiveReportsOneExtent)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 0;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    SageDevice device;
    device.sageWrite("rs", archive);
    const auto extents = device.sageChunkExtents("rs");
    ASSERT_EQ(extents.size(), 1u);
    EXPECT_GT(extents[0].bytes, 0u);
    EXPECT_GT(extents[0].lpnCount, 0u);
}

TEST(SageDevice, ChunkExtentsOfACorruptArchiveExitNamingTheStatus)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    // A well-framed archive (valid CRC) whose params claim version 7.
    StreamBundle bundle = StreamBundle::deserialize(archive.bytes);
    ASSERT_FALSE(bundle.stream("params").empty());
    bundle.stream("params")[0] = 7;

    SageDevice device;
    device.sageWriteShard("rs", bundle.serialize());
    EXPECT_EXIT({ (void)device.sageChunkExtents("rs"); },
                ::testing::ExitedWithCode(1),
                "unsupported SAGe container version 7");
}

// ---------------------------------------------------------------------
// Multi-SSD device array (Fig. 15 mode)
// ---------------------------------------------------------------------

TEST(SageDeviceArray, StripedReadByteIdenticalToSingleDevice)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 300;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    SageDevice single;
    single.sageWrite("rs", archive);
    const SageReadResult reference =
        single.sageRead("rs", OutputFormat::TwoBit);

    ThreadPool pool(3);
    for (unsigned n : {1u, 2u, 4u}) {
        SageDeviceArray array(n);
        array.sageWrite("rs", archive);
        EXPECT_EQ(array.fileBytes("rs"), archive.bytes.size());
        SageReadResult result =
            array.sageRead("rs", OutputFormat::TwoBit, &pool);
        // Acceptance bar: output byte-identical to the single-device
        // path, whatever the stripe width.
        EXPECT_EQ(result.packedReads, reference.packedReads)
            << n << " devices";
        EXPECT_EQ(result.compressedBytes, archive.bytes.size());
        // Every device's shard layout keeps the genomic invariant.
        for (unsigned d = 0; d < n; d++)
            EXPECT_TRUE(array.device(d).ftl().genomicLayoutAligned());
        array.remove("rs");
        for (unsigned d = 0; d < n; d++)
            EXPECT_TRUE(array.device(d).ftl().genomicLayoutAligned());
    }
}

TEST(SageDeviceArray, NandStreamingScalesWithDevices)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);

    SageDeviceArray one(1);
    SageDeviceArray four(4);
    one.sageWrite("rs", archive);
    four.sageWrite("rs", archive);
    const auto t1 = one.sageRead("rs", OutputFormat::TwoBit);
    const auto t4 = four.sageRead("rs", OutputFormat::TwoBit);
    // Four devices stream their shards concurrently; with page-sized
    // stripes the slowest shard is at most ~1/2 of the single-device
    // stream even for small archives.
    EXPECT_LT(t4.nandSeconds, t1.nandSeconds);
    EXPECT_LE(t4.linkSeconds, t1.linkSeconds);
}

// ---------------------------------------------------------------------
// Hardware model (Table 1)
// ---------------------------------------------------------------------

TEST(SageHw, Table1Totals)
{
    SageHwModel base;
    // Paper: 0.002 mm^2 and 0.49 mW for an 8-channel SSD.
    EXPECT_NEAR(base.totalAreaMm2(), 0.002, 0.002 * 0.4);
    EXPECT_NEAR(base.totalPowerMw(), 0.49, 0.49 * 0.05);

    SageHwConfig mode3;
    mode3.inStorageRegisters = true;
    SageHwModel in_storage(mode3);
    EXPECT_NEAR(in_storage.totalPowerMw(), 0.49 + 0.28,
                (0.49 + 0.28) * 0.05);
}

TEST(SageHw, TinyFractionOfControllerCores)
{
    SageHwModel hw;
    // Paper: 0.7% of the three SSD-controller cores.
    EXPECT_LT(hw.fractionOfControllerCores(), 0.02);
}

TEST(SageHw, NandBoundNotComputeBound)
{
    // Paper §8.2: throughput is bottlenecked by NAND read, not logic.
    SageHwModel hw;
    const SsdModel ssd = SsdModel::pciePerformance();
    const uint64_t compressed = 100 * kMiB;
    const uint64_t bases = 1600 * kMiB; // ~16x ratio.
    EXPECT_GT(ssd.internalReadSeconds(compressed) * 5,
              hw.computeSeconds(compressed, bases));
}

TEST(SageHw, EnergyTracksPowerAndTime)
{
    SageHwModel hw;
    EXPECT_NEAR(hw.energyJoules(10.0),
                hw.totalPowerMw() * 1e-3 * 10.0, 1e-12);
}

// ---------------------------------------------------------------------
// GenStore ISF
// ---------------------------------------------------------------------

TEST(Isf, ExactMatchesDetected)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    InStorageFilter isf(ds.donor); // Filter against the true genome.
    // A read cut straight from the donor matches exactly.
    EXPECT_TRUE(isf.matchesExactly(ds.donor.substr(1000, 150)));
    // Its reverse complement matches too.
    EXPECT_TRUE(isf.matchesExactly(
        reverseComplement(ds.donor.substr(5000, 150))));
}

TEST(Isf, MismatchedReadNotFiltered)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    InStorageFilter isf(ds.donor);
    std::string read = ds.donor.substr(2000, 150);
    read[75] = read[75] == 'A' ? 'C' : 'A';
    EXPECT_FALSE(isf.matchesExactly(read));
}

TEST(Isf, FiltersMeaningfulFractionOfCleanShortReads)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    InStorageFilter isf(ds.donor);
    const IsfResult result = isf.filter(ds.readSet);
    // Most short reads are error-free copies (Property 2).
    EXPECT_GT(result.filterFraction(), 0.3);
    EXPECT_LT(result.filterFraction(), 1.0);
    EXPECT_EQ(result.remainingBases(),
              result.totalBases - result.filteredBases);
}

TEST(Isf, FilterKeepsUpWithNand)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    InStorageFilter isf(ds.reference);
    const SsdModel ssd = SsdModel::pciePerformance();
    // Filtering packed reads should take about as long as streaming
    // them off NAND (GenStore's design point), not 10x longer.
    const double filter = isf.filterSeconds(ssd, 1000 * kMiB);
    const double stream = ssd.internalReadSeconds(250 * kMiB);
    EXPECT_LT(filter, stream * 2.0);
}

// ---------------------------------------------------------------------
// Pipeline model
// ---------------------------------------------------------------------

TEST(Pipeline, MakespanSingleStageIsSum)
{
    std::vector<std::vector<double>> t = {{1.0}, {2.0}, {3.0}};
    EXPECT_DOUBLE_EQ(pipelineMakespan(t), 6.0);
}

TEST(Pipeline, MakespanDominatedBySlowestStage)
{
    // 10 batches, stage times 1 and 5: makespan ~ 10*5 + fill.
    std::vector<std::vector<double>> t(10, {1.0, 5.0});
    const double makespan = pipelineMakespan(t);
    EXPECT_NEAR(makespan, 10 * 5.0 + 1.0, 1e-9);
}

TEST(Pipeline, MakespanBetweenBoundsRandom)
{
    Rng rng(123);
    std::vector<std::vector<double>> t(20,
                                       std::vector<double>(4, 0.0));
    double total = 0.0;
    std::vector<double> stage_sums(4, 0.0);
    for (auto &row : t) {
        for (size_t s = 0; s < 4; s++) {
            row[s] = rng.nextDouble();
            total += row[s];
            stage_sums[s] += row[s];
        }
    }
    const double makespan = pipelineMakespan(t);
    // Lower bound: any stage's total. Upper bound: everything serial.
    for (double s : stage_sums)
        EXPECT_GE(makespan + 1e-9, s);
    EXPECT_LE(makespan, total + 1e-9);
}

/** A synthetic workload with hand-set measurements. */
WorkloadMeasurement
syntheticWorkload()
{
    WorkloadMeasurement work;
    work.name = "synthetic";
    work.fastqBytes = 400 * kMiB;
    work.totalReads = 1'000'000;
    work.totalBases = 150'000'000;
    work.pigzBytes = 80 * kMiB;
    work.springBytes = 25 * kMiB;
    work.sageBytes = 26 * kMiB;
    work.sageDnaStreamBytes = 12 * kMiB;
    work.pigzDecompSeconds = 2.0;    // Serial gzip-class decode.
    work.springDecompSeconds = 0.9;
    work.springBackendSeconds = 0.5;
    work.sageSwDecompSeconds = 0.35;
    work.isfFilterFraction = 0.7;
    return work;
}

TEST(Pipeline, EndToEndOrderingMatchesPaper)
{
    const WorkloadMeasurement work = syntheticWorkload();
    SystemConfig system;
    system.mapper = gemAccelerator();

    const double pigz =
        evaluateEndToEnd(work, PrepConfig::Pigz, system).seconds;
    const double spr =
        evaluateEndToEnd(work, PrepConfig::NSpr, system).seconds;
    const double sprac =
        evaluateEndToEnd(work, PrepConfig::NSprAC, system).seconds;
    const double sage_sw =
        evaluateEndToEnd(work, PrepConfig::SageSW, system).seconds;
    const double sage_hw =
        evaluateEndToEnd(work, PrepConfig::SageHW, system).seconds;
    const double ideal =
        evaluateEndToEnd(work, PrepConfig::ZeroTimeDec, system).seconds;

    // Paper Fig. 13 ordering: pigz slowest, then (N)Spr, (N)SprAC,
    // SAGeSW; SAGe matches the ideal.
    EXPECT_GT(pigz, spr);
    EXPECT_GT(spr, sprac);
    EXPECT_GT(sprac, sage_hw);
    EXPECT_GE(sage_sw, sage_hw);
    EXPECT_NEAR(sage_hw, ideal, ideal * 0.05);
}

TEST(Pipeline, SharedConsumersCapSageSwPrepWithServeMeasurement)
{
    WorkloadMeasurement work = syntheticWorkload();
    SystemConfig system;
    system.mapper = gemAccelerator();
    // Private-pipeline projection would be 0.35 / 24 with the default
    // parallel factor; a faster measured serving figure must cap it
    // when consumers share the archive.
    work.sageSwServeSeconds = 0.002;
    work.sageSwServeClients = 4.0;

    const double solo =
        dataPrepSeconds(work, PrepConfig::SageSW, system);
    system.sharedConsumers = 16;
    const double shared =
        dataPrepSeconds(work, PrepConfig::SageSW, system);
    EXPECT_LT(shared, solo);

    // A slower serve measurement never worsens the projection, and
    // the cap only applies when consumers actually share the archive.
    work.sageSwServeSeconds = 10.0;
    EXPECT_DOUBLE_EQ(dataPrepSeconds(work, PrepConfig::SageSW, system),
                     solo);
    system.sharedConsumers = 1;
    work.sageSwServeSeconds = 0.002;
    EXPECT_DOUBLE_EQ(dataPrepSeconds(work, PrepConfig::SageSW, system),
                     solo);
    // Other configurations have no serving layer: unaffected.
    const double pigz =
        dataPrepSeconds(work, PrepConfig::Pigz, system);
    system.sharedConsumers = 16;
    EXPECT_DOUBLE_EQ(dataPrepSeconds(work, PrepConfig::Pigz, system),
                     pigz);
}

TEST(Pipeline, SageSsdWithIsfWinsWhenFilterIsStrong)
{
    const WorkloadMeasurement work = syntheticWorkload();
    SystemConfig plain;
    plain.mapper = gemAccelerator();
    SystemConfig isf = plain;
    isf.useIsf = true;

    const double sage_hw =
        evaluateEndToEnd(work, PrepConfig::SageHW, plain).seconds;
    const double sage_ssd_isf =
        evaluateEndToEnd(work, PrepConfig::SageSSD, isf).seconds;
    EXPECT_LT(sage_ssd_isf, sage_hw);
}

TEST(Pipeline, ZeroTimeDecCannotUseIsfCheaply)
{
    // Paper §8.1 observation 5: 0TimeDec + ISF requires moving data
    // into the SSD and back; SAGeSSD+ISF beats it.
    const WorkloadMeasurement work = syntheticWorkload();
    SystemConfig isf;
    isf.mapper = gemAccelerator();
    isf.useIsf = true;

    const double ideal_isf =
        evaluateEndToEnd(work, PrepConfig::ZeroTimeDec, isf).seconds;
    const double sage_ssd_isf =
        evaluateEndToEnd(work, PrepConfig::SageSSD, isf).seconds;
    EXPECT_LT(sage_ssd_isf, ideal_isf);
}

TEST(Pipeline, MoreSsdsHelpSage)
{
    const WorkloadMeasurement work = syntheticWorkload();
    SystemConfig one;
    one.mapper = gemAccelerator();
    one.useIsf = true;
    SystemConfig four = one;
    four.numSsds = 4;

    const double t1 =
        evaluateEndToEnd(work, PrepConfig::SageSSD, one).seconds;
    const double t4 =
        evaluateEndToEnd(work, PrepConfig::SageSSD, four).seconds;
    EXPECT_LE(t4, t1);
}

TEST(Pipeline, SataShiftsBottleneckToLink)
{
    const WorkloadMeasurement work = syntheticWorkload();
    SystemConfig pcie;
    pcie.mapper = gemAccelerator();
    SystemConfig sata = pcie;
    sata.ssd = SsdModel::sataCost();

    const double t_pcie =
        evaluateEndToEnd(work, PrepConfig::SageHW, pcie).seconds;
    const double t_sata =
        evaluateEndToEnd(work, PrepConfig::SageHW, sata).seconds;
    EXPECT_GT(t_sata, t_pcie);
}

TEST(Pipeline, EnergyOrderingMatchesPaper)
{
    const WorkloadMeasurement work = syntheticWorkload();
    SystemConfig system;
    system.mapper = gemAccelerator();

    const double e_pigz =
        evaluateEndToEnd(work, PrepConfig::Pigz, system).energy.total();
    const double e_spr =
        evaluateEndToEnd(work, PrepConfig::NSpr, system).energy.total();
    const double e_sage =
        evaluateEndToEnd(work, PrepConfig::SageHW, system)
            .energy.total();
    // Paper Fig. 16: SAGe ≫ (N)Spr ≫ pigz in energy reduction.
    EXPECT_GT(e_pigz, e_spr);
    EXPECT_GT(e_spr, e_sage);
}

TEST(Pipeline, DataPrepOnlyOrdering)
{
    const WorkloadMeasurement work = syntheticWorkload();
    SystemConfig system;
    system.mapper = gemAccelerator();
    // Paper Fig. 14: prep-only speedups are much larger than
    // end-to-end ones (mapping no longer hides anything).
    const double pigz =
        dataPrepSeconds(work, PrepConfig::Pigz, system);
    const double spr = dataPrepSeconds(work, PrepConfig::NSpr, system);
    const double sage = dataPrepSeconds(work, PrepConfig::SageHW,
                                        system);
    EXPECT_GT(pigz / sage, 10.0);
    EXPECT_GT(spr / sage, 2.0);
}

} // namespace
} // namespace sage
