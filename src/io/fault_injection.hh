/**
 * @file
 * Deterministic fault injection for the recoverable I/O path.
 *
 * FaultInjectionSource wraps any ByteSource and perturbs its
 * *recoverable* reads (tryReadAt / tryReadBatch) on a seeded,
 * reproducible schedule: hard I/O errors, short reads, silent
 * bit-flips, and added latency. Every decode reads through that path:
 * archive open, the service's chunk decodes, and SageReader's restore
 * and prep loops (CLI decompress, decodeAll, decodeAllPacked, next),
 * which turn a failed chunk into a fatal exit naming the error. The
 * fatal entry points (readAt, readBatch) pass through uninjected —
 * they are the "I cannot continue without these bytes" contract of
 * whole-stream helpers such as StreamDirectory::load, and injecting
 * there would just abort the process under test.
 *
 * The decision for operation k depends only on (seed, k), so a given
 * schedule always injects the same multiset of faults regardless of
 * thread interleaving; per-kind counters let harnesses reconcile
 * injected faults against ServiceStats.
 */

#ifndef SAGE_IO_FAULT_INJECTION_HH
#define SAGE_IO_FAULT_INJECTION_HH

#include <atomic>

#include "io/byte_stream.hh"

namespace sage {

/** Fault schedule knobs; all rates in [0, 1]. */
struct FaultConfig
{
    uint64_t seed = 1;          ///< Schedule seed (same seed = same faults).
    uint32_t failEveryN = 0;    ///< Hard-fail every Nth try-read (0 = off).
    double ioErrorRate = 0.0;   ///< P(hard IoError) per try-read.
    double shortReadRate = 0.0; ///< P(truncated read) per try-read.
    double bitFlipRate = 0.0;   ///< P(one silently flipped bit) per try-read.
    uint32_t latencyMicros = 0; ///< Added latency per try-read (0 = off).
};

/** Counts of injected faults, by kind. */
struct FaultCounters
{
    uint64_t operations = 0; ///< try-reads that reached the injector.
    uint64_t ioErrors = 0;   ///< Hard failures injected (IoError).
    uint64_t shortReads = 0; ///< Truncated reads injected.
    uint64_t bitFlips = 0;   ///< Silent single-bit corruptions injected.
};

/** ByteSource decorator injecting faults into the recoverable path. */
class FaultInjectionSource final : public ByteSource
{
  public:
    /** Wrap @p inner (must outlive us) with schedule @p config. */
    FaultInjectionSource(const ByteSource &inner, FaultConfig config);

    uint64_t size() const override { return inner_.size(); }

    /** Fatal path: passes through uninjected. */
    void readAt(uint64_t offset, void *dst, size_t size) const override;
    void readBatch(const Extent *extents, size_t count) const override;

    /** Recoverable path: subject to the fault schedule. Batches are
     *  injected per extent (base-class loop over tryReadAt). */
    Status tryReadAt(uint64_t offset, void *dst,
                     size_t size) const override;

    const uint8_t *view(uint64_t offset, size_t size) const override;
    std::string describe() const override;

    /** Snapshot of injected-fault counts so far. */
    FaultCounters counters() const;

    /** Master switch. Disarm to pass try-reads through untouched —
     *  e.g. while opening the archive, so setup I/O cannot trip the
     *  schedule — then re-arm for the workload under test. Disarmed
     *  operations are neither perturbed nor counted. */
    void setArmed(bool armed)
    {
        armed_.store(armed, std::memory_order_relaxed);
    }

  private:
    /** What the schedule says operation @p op does. */
    enum class Action : uint8_t { None, IoError, ShortRead, BitFlip };
    Action decide(uint64_t op) const;

    const ByteSource &inner_;
    FaultConfig config_;
    std::atomic<bool> armed_{true};
    mutable std::atomic<uint64_t> nextOp_{0};
    mutable std::atomic<uint64_t> ioErrors_{0};
    mutable std::atomic<uint64_t> shortReads_{0};
    mutable std::atomic<uint64_t> bitFlips_{0};
};

} // namespace sage

#endif // SAGE_IO_FAULT_INJECTION_HH
