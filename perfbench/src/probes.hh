/**
 * @file
 * Outside-in measurement helpers for the benchmark program: allocation
 * counters fed by a replaced global operator new, a counting and
 * timing ByteSource wrapper, process CPU/RSS readers, the calibrated
 * effective-core count and the digests the output checks compare.
 * Nothing here is linked into libsage.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "genomics/read.hh"
#include "io/byte_stream.hh"

namespace perfbench {

// ---- allocation counting ----------------------------------------------

/** Allocations made by the calling thread since it started. */
uint64_t threadAllocations();

/** Allocations made by every thread since the process started. */
uint64_t processAllocations();

// ---- I/O counting -----------------------------------------------------

/** Counters of a CountingSource (monotonic; read with snapshot()). */
struct FetchCounters
{
    uint64_t calls = 0;       ///< readAt/readBatch calls (any flavor).
    uint64_t batchCalls = 0;  ///< readBatch calls: one per chunk fetch.
    uint64_t bytes = 0;       ///< Bytes copied out of the source.
    uint64_t nanos = 0;       ///< Wall time spent inside those calls.
};

/**
 * ByteSource wrapper that counts and times every read forwarded to
 * the wrapped source. The decoder fetches one chunk's stream slices
 * with a single readBatch call, so batchCalls counts chunk decodes.
 */
class CountingSource final : public sage::ByteSource
{
  public:
    explicit CountingSource(const sage::ByteSource &inner)
        : inner_(inner)
    {}

    uint64_t size() const override { return inner_.size(); }
    void readAt(uint64_t offset, void *dst, size_t size) const override;
    void readBatch(const Extent *extents, size_t count) const override;
    sage::Status tryReadAt(uint64_t offset, void *dst,
                           size_t size) const override;
    sage::Status tryReadBatch(const Extent *extents,
                              size_t count) const override;
    std::string describe() const override { return inner_.describe(); }

    FetchCounters snapshot() const;

  private:
    void record(bool batch, uint64_t bytes, uint64_t nanos) const;

    const sage::ByteSource &inner_;
    mutable std::atomic<uint64_t> calls_{0};
    mutable std::atomic<uint64_t> batchCalls_{0};
    mutable std::atomic<uint64_t> bytes_{0};
    mutable std::atomic<uint64_t> nanos_{0};
};

// ---- process ----------------------------------------------------------

/** Monotonic seconds (steady clock). */
double nowSeconds();

/** Process user + system CPU seconds so far. */
double processCpuSeconds();

/** Resident set size in MB (1e6 bytes). */
double residentMb();

/** Return freed heap pages to the OS so residentMb() sees live data. */
void releaseFreeMemory();

/** Samples residentMb() every 100 ms on its own thread until stop(). */
class ResidentSampler
{
  public:
    ResidentSampler();
    ~ResidentSampler();
    ResidentSampler(const ResidentSampler &) = delete;
    ResidentSampler &operator=(const ResidentSampler &) = delete;

    /** Stop sampling; median of the samples in MB. */
    double stop();

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::vector<double> samples_;
    std::thread thread_;  ///< Last: starts after the members it uses.
};

/** Host description recorded beside every result. */
struct HostInfo
{
    unsigned nproc = 0;
    double effectiveCores = 0.0;  ///< Calibrated, see calibrateCores().
    std::string compiler;
    std::string kernelLevel;      ///< kernels::activeLevelName().
};

/**
 * Effective parallelism: a fixed CPU loop's aggregate rate on nproc
 * threads divided by its rate on one thread (1.0 = no parallel gain).
 */
HostInfo probeHost();

std::string hostJson(const HostInfo &host);

// ---- digests ----------------------------------------------------------

/**
 * 64-bit digest of a byte span. Every step is a bijection of the
 * running state, so changing any one byte always changes the result.
 */
uint64_t digest(const void *data, size_t size, uint64_t seed = 0);

/** Digest of one read: header, bases and quality. */
uint64_t readDigest(const sage::Read &read);

/** Bijective 64-bit finalizer used to combine digests. */
uint64_t mix(uint64_t x);

/** Position-keyed term: summing terms over a range gives a digest
 *  that depends on the order of the reads. */
inline uint64_t
positionTerm(uint64_t index, uint64_t read_digest)
{
    return mix(read_digest + index * 0x9e3779b97f4a7c15ull);
}

/** Header + bases + quality bytes of a read (the payload unit). */
inline uint64_t
payloadBytes(const sage::Read &read)
{
    return read.header.size() + read.bases.size() + read.quals.size();
}

// ---- statistics -------------------------------------------------------

/** Quantile @p q of @p values (linear interpolation; 0 when empty). */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
