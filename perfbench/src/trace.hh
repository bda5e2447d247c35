/**
 * @file
 * In-memory span tracing for the traced benchmark run.
 *
 * A span is one timed call into a layer, named `<layer>.<call>`, with
 * its parent span and the id of the operation (request or pass) it
 * belongs to. Spans are recorded from the benchmark's own files around
 * calls into libsage, kept in per-thread buffers, and written out at
 * exit as Chrome trace-event JSON (opens in Perfetto). Self time is a
 * span's duration minus its children's.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    const char *name = nullptr;  ///< Static `<layer>.<call>` string.
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = root span.
    uint64_t op = 0;      ///< Operation id shared by a request's spans.
    uint32_t tid = 0;
};

/** Self time aggregated over every span of one name. */
struct SpanSummary
{
    std::string name;
    uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The tracer spans record into; null while tracing is off. */
    static Tracer *active();

    /** Route spans to @p tracer (null turns tracing off). */
    static void setActive(Tracer *tracer);

    /** Next operation id (for OpScope). */
    uint64_t newOp();

    /** Append a finished span from the calling thread. */
    void record(const SpanRecord &span);

    uint32_t newSpanId();

    /** Spans of every thread, by start time. This and the readers
     *  below run only after every recording thread has stopped. */
    std::vector<SpanRecord> spans() const;

    /** Per-name self-time table, largest self time first. */
    std::vector<SpanSummary> summarize() const;

    /** Write Chrome trace-event JSON; @p other_data is a JSON object
     *  stored under "otherData". Returns false on I/O failure. */
    bool writeChromeJson(const std::string &path,
                         const std::string &other_data) const;

    /** Nanoseconds since the tracer was created. */
    uint64_t nowNs() const;

  private:
    struct ThreadBuffer
    {
        uint32_t tid = 0;
        std::vector<SpanRecord> spans;
    };

    ThreadBuffer &bufferForThread();

    uint64_t epochNs_ = 0;
    std::atomic<uint64_t> nextOp_{1};
    std::atomic<uint32_t> nextSpan_{1};
    mutable std::mutex mutex_;  ///< Guards buffers_ (not their spans).
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/** RAII span around one layer call; free when tracing is off. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    SpanRecord span_;
};

/** Marks the calling thread's spans as one operation until scope end. */
class OpScope
{
  public:
    OpScope();
    ~OpScope();
    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

  private:
    uint64_t previous_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
