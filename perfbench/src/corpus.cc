/**
 * @file
 * The benchmark's seeded synthetic corpus (see corpus.hh).
 */

#include "corpus.hh"

#include "genomics/alphabet.hh"
#include "genomics/fastq.hh"
#include "probes.hh"
#include "service/chunk_cache.hh"
#include "simgen/synthesize.hh"

namespace perfbench {

GeneratedSet
generateSet(const ReadSetSpec &spec, uint64_t seed, unsigned index)
{
    sage::DatasetSpec dataset =
        spec.longRead ? sage::makeRs4Spec() : sage::makeRs2Spec();
    dataset.name = (spec.longRead ? "long-" : "short-") +
        std::to_string(index);
    dataset.genome.referenceLength = spec.referenceLength;
    dataset.depth = spec.depth;
    dataset.seed = mix(seed * 0x100000001b3ull + index + 1);
    sage::SimulatedDataset simulated = sage::synthesizeDataset(dataset);

    GeneratedSet out;
    out.fastq = sage::toFastq(simulated.readSet);
    out.reads = std::move(simulated.readSet);
    out.reference = std::move(simulated.reference);
    return out;
}

Archive
buildArchive(const std::string &dir, const std::string &name,
             const ReadSetSpec &spec, uint64_t seed, unsigned index)
{
    GeneratedSet generated = generateSet(spec, seed, index);

    Archive archive;
    archive.name = name;
    archive.path = dir + "/" + name;
    archive.reads = generated.reads.reads.size();
    archive.fastqBytes = generated.fastq.size();
    archive.fastqDigest =
        digest(generated.fastq.data(), generated.fastq.size());
    archive.decodedBytes =
        sage::DecodedChunk::residentBytes(generated.reads.reads);
    for (const sage::Read &read : generated.reads.reads) {
        archive.payloadBytes += payloadBytes(read);
        archive.baseBytes += read.bases.size();
        archive.readMultiset += mix(readDigest(read));
        const sage::OutputFormat format = sage::isAcgtOnly(read.bases)
            ? sage::OutputFormat::TwoBit
            : sage::OutputFormat::ThreeBit;
        const std::vector<uint8_t> packed =
            sage::packSequence(read.bases, format);
        archive.packedMultiset += mix(digest(packed.data(), packed.size()));
    }

    // The program's side: parse the FASTQ text, write the archive.
    double start = nowSeconds();
    sage::ReadSet parsed = sage::fromFastq(generated.fastq, name);
    archive.parseSeconds = nowSeconds() - start;

    sage::SageConfig config;
    config.chunkReads = spec.chunkReads;
    config.preserveOrder = spec.preserveOrder;
    start = nowSeconds();
    {
        sage::SageWriter writer(archive.path, config);
        writer.add(std::move(parsed));
        archive.writeStats = writer.finish(generated.reference);
    }
    archive.writeSeconds = nowSeconds() - start;
    archive.archiveBytes = archive.writeStats.archiveBytes;

    return archive;
}

bool
storeOrder(Archive &archive)
{
    sage::SageReader reader(archive.path);
    std::vector<uint64_t> prefix(1, 0);
    prefix.reserve(archive.reads + 1);
    uint64_t multiset = 0;
    for (size_t chunk = 0; chunk < reader.chunkCount(); chunk++) {
        for (const sage::Read &read : reader.readChunk(chunk)) {
            const uint64_t d = readDigest(read);
            multiset += mix(d);
            prefix.push_back(prefix.back() +
                             positionTerm(prefix.size() - 1, d));
        }
    }
    if (prefix.size() != archive.reads + 1 ||
        multiset != archive.readMultiset)
        return false;
    archive.storedPrefix = std::move(prefix);
    return true;
}

uint64_t
expectedRangeDigest(const Archive &archive, uint64_t first,
                    uint64_t count)
{
    return archive.storedPrefix[first + count] -
        archive.storedPrefix[first];
}

uint64_t
rangeDigest(const std::vector<sage::Read> &reads, uint64_t first)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < reads.size(); i++)
        sum += positionTerm(first + i, readDigest(reads[i]));
    return sum;
}

} // namespace perfbench
