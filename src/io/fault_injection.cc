#include "io/fault_injection.hh"

#include <chrono>
#include <thread>

namespace sage {

namespace {

/** splitmix64: cheap, well-mixed hash of (seed, op index). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a hash value. */
double
unitInterval(uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

FaultInjectionSource::FaultInjectionSource(const ByteSource &inner,
                                           FaultConfig config)
    : inner_(inner), config_(config)
{}

const uint8_t *
FaultInjectionSource::view(uint64_t offset, size_t size) const
{
    // A view would bypass injection entirely; force callers through
    // the copying path so the schedule sees every read.
    (void)offset;
    (void)size;
    return nullptr;
}

std::string
FaultInjectionSource::describe() const
{
    return "<fault-injected " + inner_.describe() + ">";
}

FaultCounters
FaultInjectionSource::counters() const
{
    FaultCounters out;
    out.operations = nextOp_.load(std::memory_order_relaxed);
    out.ioErrors = ioErrors_.load(std::memory_order_relaxed);
    out.shortReads = shortReads_.load(std::memory_order_relaxed);
    out.bitFlips = bitFlips_.load(std::memory_order_relaxed);
    return out;
}

FaultInjectionSource::Action
FaultInjectionSource::decide(uint64_t op) const
{
    if (config_.failEveryN > 0 && (op + 1) % config_.failEveryN == 0)
        return Action::IoError;
    // Derive independent uniform draws for each fault kind from
    // disjoint hash lanes so the rates compose without correlation.
    const uint64_t base = mix64(config_.seed ^ mix64(op));
    if (config_.ioErrorRate > 0.0 &&
        unitInterval(mix64(base ^ 0x10)) < config_.ioErrorRate) {
        return Action::IoError;
    }
    if (config_.shortReadRate > 0.0 &&
        unitInterval(mix64(base ^ 0x20)) < config_.shortReadRate) {
        return Action::ShortRead;
    }
    if (config_.bitFlipRate > 0.0 &&
        unitInterval(mix64(base ^ 0x30)) < config_.bitFlipRate) {
        return Action::BitFlip;
    }
    return Action::None;
}

Status
FaultInjectionSource::tryReadAt(uint64_t offset, void *dst,
                                size_t size) const
{
    if (size == 0 || !armed_.load(std::memory_order_relaxed))
        return inner_.tryReadAt(offset, dst, size);

    const uint64_t op = nextOp_.fetch_add(1, std::memory_order_relaxed);
    if (config_.latencyMicros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.latencyMicros));
    }

    switch (decide(op)) {
      case Action::IoError:
        ioErrors_.fetch_add(1, std::memory_order_relaxed);
        return Status::ioError("injected I/O error (op ", op, ") on ",
                               inner_.describe(), " at offset ", offset);
      case Action::ShortRead: {
        // Deliver a partial prefix, then report truncation — the shape
        // a shrinking file or failing device presents.
        const size_t partial = size / 2;
        if (partial > 0) {
            Status status = inner_.tryReadAt(offset, dst, partial);
            if (!status.ok())
                return status;
        }
        shortReads_.fetch_add(1, std::memory_order_relaxed);
        return Status::truncated("injected short read (op ", op, ") on ",
                                 inner_.describe(), ": wanted ", size,
                                 " bytes at offset ", offset, ", got ",
                                 partial);
      }
      case Action::BitFlip: {
        Status status = inner_.tryReadAt(offset, dst, size);
        if (!status.ok())
            return status;
        const uint64_t h = mix64(config_.seed ^ mix64(op) ^ 0x40);
        const size_t byte = static_cast<size_t>(h % size);
        static_cast<uint8_t *>(dst)[byte] ^=
            static_cast<uint8_t>(1u << ((h >> 32) & 7));
        bitFlips_.fetch_add(1, std::memory_order_relaxed);
        return Status();
      }
      case Action::None:
        break;
    }
    return inner_.tryReadAt(offset, dst, size);
}

} // namespace sage
