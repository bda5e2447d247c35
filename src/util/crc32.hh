/**
 * @file
 * CRC-32 over the IEEE 802.3 polynomial 0x04C11DB7 (bit-reflected
 * 0xEDB88320, initial value and final XOR 0xFFFFFFFF — the zlib/PNG
 * CRC-32, check value 0xCBF43926 for "123456789"). It guards every
 * integrity-checked byte the repo writes: the SAGe container trailer,
 * stream bundles, gpzip and packbit blocks, and the protocol-v2 wire
 * frames (net/protocol.hh).
 *
 * update() is dispatched once, at first use, between two paths that
 * return identical values for every input:
 *   - pclmul: on x86-64 hosts with PCLMULQDQ and SSE4.1, four 128-bit
 *     carry-less-multiply accumulators fold 64 bytes per step and a
 *     Barrett reduction produces the 32-bit remainder. Inputs under
 *     64 bytes and the final 0-15 bytes take the portable path.
 *   - slice-by-8: the portable path, eight table lookups per 8 bytes.
 * Setting SAGE_FORCE_SCALAR=1 (util/cpu.hh) pins the portable path,
 * the same switch that pins the scalar sequence kernels.
 */

#ifndef SAGE_UTIL_CRC32_HH
#define SAGE_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sage {

/** Incrementally updatable CRC-32 checksum. */
class Crc32
{
  public:
    /** Feed @p size bytes into the checksum. */
    void update(const uint8_t *data, size_t size);

    /** Feed a byte vector. */
    void
    update(const std::vector<uint8_t> &data)
    {
        update(data.data(), data.size());
    }

    /** Final checksum value. */
    uint32_t value() const { return state_ ^ 0xffffffffu; }

    /** One-shot convenience. */
    static uint32_t
    of(const uint8_t *data, size_t size)
    {
        Crc32 crc;
        crc.update(data, size);
        return crc.value();
    }

    static uint32_t
    of(const std::vector<uint8_t> &data)
    {
        return of(data.data(), data.size());
    }

  private:
    uint32_t state_ = 0xffffffffu;
};

/** The dispatched update path: "pclmul" or "slice-by-8". */
const char *crc32PathName();

} // namespace sage

#endif // SAGE_UTIL_CRC32_HH
