/**
 * @file
 * Striped byte spaces: one logical archive fanned round-robin across N
 * backing sources/sinks in fixed-size stripes.
 *
 * This is the host-software analogue of the paper's SAGe data layout
 * (§5.3: pages striped across channels) lifted one level up, to whole
 * devices (§5.4 / Fig. 15 multi-SSD scaling): logical stripe s lives
 * on backing store s mod N at local offset (s div N) * stripeBytes.
 * Because SAGe v2 chunks are independently decodable byte slices, a
 * SageReader over a StripedSource fetches different chunks from
 * different devices concurrently with no reassembly pass.
 */

#ifndef SAGE_IO_STRIPED_HH
#define SAGE_IO_STRIPED_HH

#include "io/byte_stream.hh"

namespace sage {

/** Read side of a striped layout: N sources acting as one. */
class StripedSource final : public ByteSource
{
  public:
    /**
     * Assemble @p stripes (all non-null, outliving us) into one
     * logical space with @p stripe_bytes-sized stripes. The backing
     * sizes must form a valid round-robin layout (fatal otherwise).
     */
    StripedSource(std::vector<const ByteSource *> stripes,
                  uint64_t stripe_bytes);

    uint64_t size() const override { return size_; }
    /** Forwards each stripe span through the backing source's
     *  tryReadAt, so a failing shard degrades per-request. */
    Status tryReadAt(uint64_t offset, void *dst,
                     size_t size) const override;
    const uint8_t *view(uint64_t offset, size_t size) const override;
    std::string describe() const override;

    uint64_t stripeBytes() const { return stripeBytes_; }
    size_t stripeCount() const { return stripes_.size(); }

  private:
    /** Backing store and local offset of logical offset @p offset. */
    struct Location
    {
        size_t stripe;
        uint64_t localOffset;
        uint64_t bytesLeftInStripe;
    };
    Location locate(uint64_t offset) const;

    std::vector<const ByteSource *> stripes_;
    uint64_t stripeBytes_;
    uint64_t size_ = 0;
};

/** Write side: appends round-robin across N sinks. */
class StripedSink final : public ByteSink
{
  public:
    StripedSink(std::vector<ByteSink *> stripes, uint64_t stripe_bytes);

    void write(const void *data, size_t size) override;
    uint64_t tell() const override { return written_; }
    void flush() override;

  private:
    std::vector<ByteSink *> stripes_;
    uint64_t stripeBytes_;
    uint64_t written_ = 0;
};

/**
 * Split @p data into @p stripes round-robin shards of
 * @p stripe_bytes-sized stripes — the byte layout StripedSource
 * expects, e.g. for writing one shard per device.
 */
std::vector<std::vector<uint8_t>>
stripeShards(const std::vector<uint8_t> &data, size_t stripes,
             uint64_t stripe_bytes);

} // namespace sage

#endif // SAGE_IO_STRIPED_HH
