#include "io/striped.hh"

#include <algorithm>

#include "util/logging.hh"

namespace sage {

namespace {

/** Bytes that land on backing store @p d in a round-robin layout of
 *  @p total bytes over @p n stores with @p stripe-sized stripes. */
uint64_t
expectedShardBytes(uint64_t total, size_t n, uint64_t stripe, size_t d)
{
    const uint64_t full_stripes = total / stripe;
    const uint64_t tail = total % stripe;
    // Full stripes assigned to d: one per whole round plus one more if
    // d comes before the cut-off in the last partial round.
    uint64_t count = full_stripes / n;
    if (d < full_stripes % n)
        count++;
    uint64_t bytes = count * stripe;
    if (tail > 0 && full_stripes % n == d)
        bytes += tail;
    return bytes;
}

} // namespace

StripedSource::StripedSource(std::vector<const ByteSource *> stripes,
                             uint64_t stripe_bytes)
    : stripes_(std::move(stripes)), stripeBytes_(stripe_bytes)
{
    sage_assert(!stripes_.empty(), "StripedSource needs >= 1 backing");
    sage_assert(stripeBytes_ > 0, "stripe size must be positive");
    for (const ByteSource *src : stripes_) {
        sage_assert(src != nullptr, "null backing source");
        size_ += src->size();
    }
    // Reject layouts the round-robin mapping cannot have produced
    // (e.g. shards from a different stripe size or device count).
    for (size_t d = 0; d < stripes_.size(); d++) {
        const uint64_t expect = expectedShardBytes(
            size_, stripes_.size(), stripeBytes_, d);
        if (stripes_[d]->size() != expect) {
            sage_fatal("stripe shard ", d, " (", stripes_[d]->describe(),
                       ") holds ", stripes_[d]->size(), " bytes; a ",
                       stripes_.size(), "-way layout of ", size_,
                       " bytes with ", stripeBytes_,
                       "-byte stripes requires ", expect);
        }
    }
}

StripedSource::Location
StripedSource::locate(uint64_t offset) const
{
    const uint64_t s = offset / stripeBytes_;
    const uint64_t within = offset % stripeBytes_;
    Location loc;
    loc.stripe = static_cast<size_t>(s % stripes_.size());
    loc.localOffset = (s / stripes_.size()) * stripeBytes_ + within;
    loc.bytesLeftInStripe = stripeBytes_ - within;
    return loc;
}

Status
StripedSource::tryReadAt(uint64_t offset, void *dst, size_t size) const
{
    if (size == 0)
        return Status();
    Status status = checkRange(offset, size);
    if (!status.ok())
        return status;
    uint8_t *out = static_cast<uint8_t *>(dst);
    while (size > 0) {
        const Location loc = locate(offset);
        const size_t span = static_cast<size_t>(
            std::min<uint64_t>(size, loc.bytesLeftInStripe));
        status = stripes_[loc.stripe]->tryReadAt(loc.localOffset, out,
                                                 span);
        if (!status.ok())
            return status;
        out += span;
        offset += span;
        size -= span;
    }
    return Status();
}

const uint8_t *
StripedSource::view(uint64_t offset, size_t size) const
{
    if (size == 0 || offset > size_ || size > size_ - offset)
        return nullptr;
    const Location loc = locate(offset);
    if (size > loc.bytesLeftInStripe)
        return nullptr; // Span crosses a stripe boundary.
    return stripes_[loc.stripe]->view(loc.localOffset, size);
}

std::string
StripedSource::describe() const
{
    return "<" + std::to_string(stripes_.size()) + "-way stripe of " +
        stripes_.front()->describe() + ">";
}

StripedSink::StripedSink(std::vector<ByteSink *> stripes,
                         uint64_t stripe_bytes)
    : stripes_(std::move(stripes)), stripeBytes_(stripe_bytes)
{
    sage_assert(!stripes_.empty(), "StripedSink needs >= 1 backing");
    sage_assert(stripeBytes_ > 0, "stripe size must be positive");
    for (ByteSink *sink : stripes_)
        sage_assert(sink != nullptr, "null backing sink");
}

void
StripedSink::write(const void *data, size_t size)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    while (size > 0) {
        const uint64_t s = written_ / stripeBytes_;
        const uint64_t within = written_ % stripeBytes_;
        const size_t span = static_cast<size_t>(
            std::min<uint64_t>(size, stripeBytes_ - within));
        stripes_[static_cast<size_t>(s % stripes_.size())]->write(bytes,
                                                                  span);
        bytes += span;
        written_ += span;
        size -= span;
    }
}

void
StripedSink::flush()
{
    for (ByteSink *sink : stripes_)
        sink->flush();
}

std::vector<std::vector<uint8_t>>
stripeShards(const std::vector<uint8_t> &data, size_t stripes,
             uint64_t stripe_bytes)
{
    std::vector<MemorySink> sinks(stripes);
    std::vector<ByteSink *> refs;
    refs.reserve(stripes);
    for (MemorySink &sink : sinks)
        refs.push_back(&sink);
    StripedSink striped(std::move(refs), stripe_bytes);
    striped.writeBytes(data);
    std::vector<std::vector<uint8_t>> out;
    out.reserve(stripes);
    for (MemorySink &sink : sinks)
        out.push_back(sink.take());
    return out;
}

} // namespace sage
