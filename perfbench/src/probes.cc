/**
 * @file
 * Outside-in measurement helpers (see probes.hh).
 */

#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "genomics/kernels.hh"
#include "util/cpu.hh"

namespace {

// Per-thread allocation counts. Each thread also owns one padded slot
// of a fixed table so a process-wide sum needs no shared counter on
// the allocation path (threads beyond the table share slots).
constexpr unsigned kAllocSlots = 256;

struct alignas(64) AllocSlot
{
    std::atomic<uint64_t> count{0};
};

AllocSlot g_slots[kAllocSlots];
std::atomic<unsigned> g_nextSlot{0};
thread_local uint64_t t_allocations = 0;
thread_local int t_slot = -1;

inline void
countAllocation()
{
    t_allocations++;
    if (t_slot < 0) {
        t_slot = static_cast<int>(
            g_nextSlot.fetch_add(1, std::memory_order_relaxed) %
            kAllocSlots);
    }
    g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
}

void *
allocate(std::size_t size)
{
    countAllocation();
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t
threadAllocations()
{
    return t_allocations;
}

uint64_t
processAllocations()
{
    uint64_t total = 0;
    for (const AllocSlot &slot : g_slots)
        total += slot.count.load(std::memory_order_relaxed);
    return total;
}

// ---- CountingSource ---------------------------------------------------

namespace {

uint64_t
steadyNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
extentBytes(const sage::ByteSource::Extent *extents, size_t count)
{
    uint64_t bytes = 0;
    for (size_t i = 0; i < count; i++)
        bytes += extents[i].size;
    return bytes;
}

} // namespace

void
CountingSource::record(bool batch, uint64_t bytes, uint64_t nanos) const
{
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (batch)
        batchCalls_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

void
CountingSource::readAt(uint64_t offset, void *dst, size_t size) const
{
    const uint64_t start = steadyNanos();
    inner_.readAt(offset, dst, size);
    record(false, size, steadyNanos() - start);
}

void
CountingSource::readBatch(const Extent *extents, size_t count) const
{
    const uint64_t start = steadyNanos();
    inner_.readBatch(extents, count);
    record(true, extentBytes(extents, count), steadyNanos() - start);
}

sage::Status
CountingSource::tryReadAt(uint64_t offset, void *dst, size_t size) const
{
    const uint64_t start = steadyNanos();
    sage::Status status = inner_.tryReadAt(offset, dst, size);
    record(false, size, steadyNanos() - start);
    return status;
}

sage::Status
CountingSource::tryReadBatch(const Extent *extents, size_t count) const
{
    const uint64_t start = steadyNanos();
    sage::Status status = inner_.tryReadBatch(extents, count);
    record(true, extentBytes(extents, count), steadyNanos() - start);
    return status;
}

FetchCounters
CountingSource::snapshot() const
{
    FetchCounters out;
    out.calls = calls_.load(std::memory_order_relaxed);
    out.batchCalls = batchCalls_.load(std::memory_order_relaxed);
    out.bytes = bytes_.load(std::memory_order_relaxed);
    out.nanos = nanos_.load(std::memory_order_relaxed);
    return out;
}

// ---- process ----------------------------------------------------------

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
residentMb()
{
    long pages_total = 0, pages_resident = 0;
    FILE *statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr)
        return 0.0;
    const int fields =
        std::fscanf(statm, "%ld %ld", &pages_total, &pages_resident);
    std::fclose(statm);
    if (fields != 2)
        return 0.0;
    return static_cast<double>(pages_resident) *
        static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1e6;
}

void
releaseFreeMemory()
{
#ifdef __GLIBC__
    ::malloc_trim(0);
#endif
}

ResidentSampler::ResidentSampler()
    : thread_([this] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!stopping_) {
              samples_.push_back(residentMb());
              wake_.wait_for(lock, std::chrono::milliseconds(100),
                             [this] { return stopping_; });
          }
      })
{}

ResidentSampler::~ResidentSampler()
{
    stop();
}

double
ResidentSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    return median(samples_);
}

namespace {

/** A fixed amount of integer work the compiler cannot fold away. */
uint64_t
spin(uint64_t iterations, uint64_t seed)
{
    uint64_t x = seed | 1;
    for (uint64_t i = 0; i < iterations; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

} // namespace

HostInfo
probeHost()
{
    HostInfo host;
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
    host.compiler = sage::compilerVersion();
    host.kernelLevel = sage::kernels::activeLevelName();

    constexpr uint64_t kIterations = 40'000'000;
    std::atomic<uint64_t> sink{0};
    double start = nowSeconds();
    sink += spin(kIterations, 1);
    const double single = nowSeconds() - start;

    std::vector<std::thread> threads;
    start = nowSeconds();
    for (unsigned t = 0; t < host.nproc; t++)
        threads.emplace_back([&sink, t] {
            sink += spin(kIterations, t + 2);
        });
    for (std::thread &thread : threads)
        thread.join();
    const double parallel = nowSeconds() - start;
    host.effectiveCores = parallel > 0.0
        ? static_cast<double>(host.nproc) * single / parallel
        : 0.0;
    if (sink.load() == 0)  // Keeps the loops observable.
        std::fprintf(stderr, "calibration sink is zero\n");
    return host;
}

std::string
hostJson(const HostInfo &host)
{
    char effective[32];
    std::snprintf(effective, sizeof(effective), "%.2f",
                  host.effectiveCores);
    std::ostringstream out;
    out << "{\"nproc\": " << host.nproc
        << ", \"effective_cores\": " << effective
        << ", \"compiler\": \"" << host.compiler << "\""
        << ", \"kernels\": \"" << host.kernelLevel << "\"}";
    return out.str();
}

// ---- digests ----------------------------------------------------------

uint64_t
mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

uint64_t
digest(const void *data, size_t size, uint64_t seed)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t h = mix(seed ^ (size * 0x9e3779b97f4a7c15ull));
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + i, 8);
        h = (h ^ word) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    if (i < size) {
        uint64_t word = 0;
        std::memcpy(&word, bytes + i, size - i);
        h = (h ^ word) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    return mix(h);
}

uint64_t
readDigest(const sage::Read &read)
{
    uint64_t h = digest(read.header.data(), read.header.size(), 1);
    h = digest(read.bases.data(), read.bases.size(), h);
    return digest(read.quals.data(), read.quals.size(), h);
}

// ---- statistics -------------------------------------------------------

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

} // namespace perfbench
