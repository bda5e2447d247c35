/**
 * @file
 * The benchmark's seeded synthetic corpus.
 *
 * Every archive is made the way a user makes one: the harness
 * synthesizes a read set from the seed (simgen, RS2-like short reads
 * or RS4-like long reads), renders it as FASTQ text, and the program
 * parses that text (fromFastq) and writes the archive file
 * (SageWriter). The harness then keeps only digests of what it
 * generated, which the output checks compare against.
 */

#ifndef PERFBENCH_CORPUS_HH
#define PERFBENCH_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/read.hh"
#include "io/session.hh"

namespace perfbench {

/** Shape of one synthetic read set and the archive written from it. */
struct ReadSetSpec
{
    bool longRead = false;         ///< RS4-like instead of RS2-like.
    uint64_t referenceLength = 0;  ///< Synthetic genome length.
    double depth = 0.0;            ///< Sequencing depth.
    uint32_t chunkReads = 0;       ///< Archive chunk size in reads.
    bool preserveOrder = false;    ///< Store the original read order.
};

/** One archive on disk plus the digests that check its outputs. */
struct Archive
{
    std::string name;  ///< File name inside the work directory.
    std::string path;
    uint64_t reads = 0;
    uint64_t fastqBytes = 0;    ///< Input FASTQ text bytes.
    uint64_t archiveBytes = 0;
    uint64_t payloadBytes = 0;  ///< header + bases + quality.
    uint64_t baseBytes = 0;     ///< bases alone.
    /** Decoded footprint as the chunk cache budgets it
     *  (DecodedChunk::residentBytes of every read). */
    uint64_t decodedBytes = 0;

    uint64_t fastqDigest = 0;   ///< digest() of the input FASTQ text.
    /** Order-insensitive sum of mix(digest(packed bases)). */
    uint64_t packedMultiset = 0;
    /** Order-insensitive sum of mix(readDigest(read)). */
    uint64_t readMultiset = 0;
    /** Prefix sums of positionTerm() over the stored read order, so a
     *  range's expected digest is two lookups (see storeOrder()). */
    std::vector<uint64_t> storedPrefix;

    sage::SageWriteStats writeStats;
    double writeSeconds = 0.0;  ///< SageWriter add + finish.
    double parseSeconds = 0.0;  ///< fromFastq of the input text.
};

/** The generated inputs behind one archive (the harness's copies). */
struct GeneratedSet
{
    std::string fastq;
    sage::ReadSet reads;
    std::string reference;
};

/** Synthesize the read set for (@p seed, @p index) deterministically. */
GeneratedSet generateSet(const ReadSetSpec &spec, uint64_t seed,
                         unsigned index);

/**
 * Generate a read set, parse its FASTQ with fromFastq and write
 * `<dir>/<name>` with SageWriter. Returns the archive's digests and
 * drops the generated inputs.
 */
Archive buildArchive(const std::string &dir, const std::string &name,
                     const ReadSetSpec &spec, uint64_t seed,
                     unsigned index);

/**
 * Establish the stored read order served by range reads: decode every
 * chunk once, check the reads are a permutation of the input (digest
 * multiset) and fill @p archive.storedPrefix. False when the decoded
 * reads are not the input's.
 */
bool storeOrder(Archive &archive);

/** Expected range digest from storedPrefix. */
uint64_t expectedRangeDigest(const Archive &archive, uint64_t first,
                             uint64_t count);

/** Range digest of reads actually received for [first, ...). */
uint64_t rangeDigest(const std::vector<sage::Read> &reads,
                     uint64_t first);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_HH
