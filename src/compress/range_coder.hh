/**
 * @file
 * Adaptive range (arithmetic) coder.
 *
 * Backend entropy stage for the quality-score codec and the SpringLike
 * baseline's high-ratio streams. This is deliberately the *kind* of coder
 * the paper contrasts SAGe against: decoding requires sequential,
 * model-state-dependent computation with table updates — efficient on a
 * host CPU, but ill-suited to the lightweight streaming hardware SAGe
 * targets (paper §3.2).
 */

#ifndef SAGE_COMPRESS_RANGE_CODER_HH
#define SAGE_COMPRESS_RANGE_CODER_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace sage {

/**
 * 32-bit range encoder with carry counting (LZMA-style low/cache
 * management, so carries propagate correctly into already-buffered
 * bytes).
 */
class RangeEncoder
{
  public:
    /** Encode a symbol given cumulative frequency [cumLow, cumHigh) of
     *  total @p total. */
    void
    encode(uint32_t cum_low, uint32_t cum_high, uint32_t total)
    {
        sage_assert(cum_low < cum_high && cum_high <= total,
                    "bad range coder interval");
        const uint32_t r = range_ / total;
        low_ += static_cast<uint64_t>(r) * cum_low;
        range_ = r * (cum_high - cum_low);
        while (range_ < (1u << 24)) {
            shiftLow();
            range_ <<= 8;
        }
    }

    /** Flush the encoder and return the byte stream. */
    std::vector<uint8_t>
    finish()
    {
        for (int i = 0; i < 5; i++)
            shiftLow();
        return std::move(bytes_);
    }

  private:
    void
    shiftLow()
    {
        if (static_cast<uint32_t>(low_) < 0xff000000u ||
            (low_ >> 32) != 0) {
            // Safe to flush: carry (if any) is applied to the cached
            // byte and any run of 0xff bytes behind it.
            uint8_t carry = static_cast<uint8_t>(low_ >> 32);
            bytes_.push_back(cache_ + carry);
            for (; pendingFf_ > 0; pendingFf_--)
                bytes_.push_back(static_cast<uint8_t>(0xff + carry));
            cache_ = static_cast<uint8_t>(low_ >> 24);
        } else {
            pendingFf_++;
        }
        low_ = (low_ << 8) & 0xffffffffULL;
    }

    std::vector<uint8_t> bytes_;
    uint64_t low_ = 0;
    uint32_t range_ = 0xffffffffu;
    uint8_t cache_ = 0;
    uint64_t pendingFf_ = 0;
    friend class RangeDecoder;
};

/** Matching decoder (subtraction form of the same coder). */
class RangeDecoder
{
  public:
    RangeDecoder(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
        // First byte is the encoder's initial zero cache; fold all five
        // init bytes through the 32-bit code register.
        for (int i = 0; i < 5; i++)
            code_ = (code_ << 8) | nextByte();
    }

    /**
     * Decode one symbol under the counts freq[0..symbols), which sum to
     * @p total, and narrow the range to its interval. The symbol is
     * the first s with code < r * (cum + freq[s]), r = range / total:
     * the same symbol as min(code / r, total - 1) falls in, without the
     * second division. r * total <= range < 2^32, so no product
     * overflows, and the last symbol absorbs every code at or past
     * r * (total - freq[last]).
     */
    unsigned
    decodeSymbol(const uint32_t *freq, unsigned symbols, uint32_t total)
    {
        const uint32_t r = range_ / total;
        uint32_t low = 0;
        unsigned symbol = 0;
        // Branchy on purpose: quality symbols are skewed, so the exit
        // predicts well; a branchless select measured slower.
        for (; symbol + 1 < symbols; symbol++) {
            const uint32_t high = low + r * freq[symbol];
            if (code_ < high)
                break;
            low = high;
        }
        code_ -= low;
        range_ = r * freq[symbol];
        while (range_ < (1u << 24)) {
            code_ = (code_ << 8) | nextByte();
            range_ <<= 8;
        }
        return symbol;
    }

  private:
    uint8_t
    nextByte()
    {
        return pos_ < size_ ? data_[pos_++] : 0;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    uint32_t code_ = 0;
    uint32_t range_ = 0xffffffffu;
};

/**
 * The adaptive count update every model shares: add 32 to the coded
 * symbol and halve all counts (keeping each at least 1) once the total
 * passes 2^16.
 */
inline void
adaptFrequencies(uint32_t *freq, unsigned symbols, uint32_t &total,
                 unsigned symbol)
{
    freq[symbol] += 32;
    total += 32;
    if (total > (1u << 16)) {
        total = 0;
        for (unsigned s = 0; s < symbols; s++) {
            freq[s] = (freq[s] + 1) >> 1;
            total += freq[s];
        }
    }
}

/** Encode @p symbol under the counts freq[0..symbols) summing to
 *  @p total, then adapt them. */
inline void
encodeAdaptive(RangeEncoder &enc, uint32_t *freq, unsigned symbols,
               uint32_t &total, unsigned symbol)
{
    uint32_t cum = 0;
    for (unsigned s = 0; s < symbol; s++)
        cum += freq[s];
    enc.encode(cum, cum + freq[symbol], total);
    adaptFrequencies(freq, symbols, total, symbol);
}

/** Decode one symbol under the counts freq[0..symbols) summing to
 *  @p total, then adapt them. */
inline unsigned
decodeAdaptive(RangeDecoder &dec, uint32_t *freq, unsigned symbols,
               uint32_t &total)
{
    const unsigned symbol = dec.decodeSymbol(freq, symbols, total);
    adaptFrequencies(freq, symbols, total, symbol);
    return symbol;
}

/**
 * Adaptive frequency model over a small alphabet with periodic halving.
 * Linear cumulative search is fine for alphabets <= 64 symbols.
 */
class AdaptiveModel
{
  public:
    explicit AdaptiveModel(unsigned symbols)
        : freq_(symbols, 1), total_(symbols)
    {}

    void
    encode(RangeEncoder &enc, unsigned symbol)
    {
        encodeAdaptive(enc, freq_.data(), size(), total_, symbol);
    }

    unsigned
    decode(RangeDecoder &dec)
    {
        return decodeAdaptive(dec, freq_.data(), size(), total_);
    }

  private:
    unsigned size() const { return static_cast<unsigned>(freq_.size()); }

    std::vector<uint32_t> freq_;
    uint32_t total_;
};

} // namespace sage

#endif // SAGE_COMPRESS_RANGE_CODER_HH
