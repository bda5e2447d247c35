/**
 * @file
 * In-memory span tracing (see trace.hh).
 */

#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<Tracer *> g_active{nullptr};

thread_local Tracer *t_owner = nullptr;
thread_local void *t_buffer = nullptr;
thread_local std::vector<uint32_t> t_stack;  ///< Open span ids.
thread_local uint64_t t_op = 0;

/** Bound on recorded spans per thread (memory guard). */
constexpr size_t kMaxSpansPerThread = 1u << 21;

uint64_t
steadyNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Tracer::Tracer() : epochNs_(steadyNs()) {}

Tracer *
Tracer::active()
{
    return g_active.load(std::memory_order_acquire);
}

void
Tracer::setActive(Tracer *tracer)
{
    g_active.store(tracer, std::memory_order_release);
}

uint64_t
Tracer::nowNs() const
{
    return steadyNs() - epochNs_;
}

uint64_t
Tracer::newOp()
{
    return nextOp_.fetch_add(1, std::memory_order_relaxed);
}

uint32_t
Tracer::newSpanId()
{
    return nextSpan_.fetch_add(1, std::memory_order_relaxed);
}

Tracer::ThreadBuffer &
Tracer::bufferForThread()
{
    if (t_owner != this || t_buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        buffers_.back()->tid = static_cast<uint32_t>(buffers_.size());
        // Room up front, so recording rarely allocates inside the
        // allocation counts the probes take around traced calls.
        buffers_.back()->spans.reserve(1u << 16);
        t_stack.reserve(64);
        t_owner = this;
        t_buffer = buffers_.back().get();
    }
    return *static_cast<ThreadBuffer *>(t_buffer);
}

void
Tracer::record(const SpanRecord &span)
{
    ThreadBuffer &buffer = bufferForThread();
    if (buffer.spans.size() >= kMaxSpansPerThread)
        return;
    buffer.spans.push_back(span);
    buffer.spans.back().tid = buffer.tid;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_)
            all.insert(all.end(), buffer->spans.begin(),
                       buffer->spans.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs < b.startNs;
              });
    return all;
}

std::vector<SpanSummary>
Tracer::summarize() const
{
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<uint32_t, uint64_t> child_ns;
    for (const SpanRecord &span : all) {
        if (span.parent != 0)
            child_ns[span.parent] += span.endNs - span.startNs;
    }
    std::map<std::string, SpanSummary> by_name;
    for (const SpanRecord &span : all) {
        SpanSummary &row = by_name[span.name];
        row.name = span.name;
        const uint64_t duration = span.endNs - span.startNs;
        const auto children = child_ns.find(span.id);
        const uint64_t nested =
            children == child_ns.end() ? 0 : children->second;
        row.count++;
        row.totalMs += static_cast<double>(duration) / 1e6;
        row.selfMs += static_cast<double>(
                          duration > nested ? duration - nested : 0) /
            1e6;
    }
    std::vector<SpanSummary> out;
    for (auto &entry : by_name)
        out.push_back(entry.second);
    std::sort(out.begin(), out.end(),
              [](const SpanSummary &a, const SpanSummary &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &other_data) const
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": %s,\n"
                      "\"traceEvents\": [\n",
                 other_data.c_str());
    const std::vector<SpanRecord> all = spans();
    for (size_t i = 0; i < all.size(); i++) {
        const SpanRecord &span = all[i];
        const std::string name = span.name;
        const std::string layer = name.substr(0, name.find('.'));
        std::fprintf(out,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": %u, \"args\": {\"op\": %llu, "
                     "\"span\": %u, \"parent\": %u}}%s\n",
                     name.c_str(), layer.c_str(),
                     static_cast<double>(span.startNs) / 1e3,
                     static_cast<double>(span.endNs - span.startNs) / 1e3,
                     span.tid, static_cast<unsigned long long>(span.op),
                     span.id, span.parent,
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char *name) : tracer_(Tracer::active())
{
    if (tracer_ == nullptr)
        return;
    span_.name = name;
    span_.id = tracer_->newSpanId();
    span_.parent = t_stack.empty() ? 0 : t_stack.back();
    span_.op = t_op;
    t_stack.push_back(span_.id);
    span_.startNs = tracer_->nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_ == nullptr)
        return;
    span_.endNs = tracer_->nowNs();
    t_stack.pop_back();
    tracer_->record(span_);
}

OpScope::OpScope() : previous_(t_op)
{
    if (Tracer *tracer = Tracer::active())
        t_op = tracer->newOp();
}

OpScope::~OpScope()
{
    t_op = previous_;
}

} // namespace perfbench
