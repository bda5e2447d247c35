#include "util/crc32.hh"

#include "util/cpu.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAGE_CRC_X86 1
#include <immintrin.h>
#else
#define SAGE_CRC_X86 0
#endif

namespace sage {

namespace {

/** The IEEE 802.3 polynomial 0x04C11DB7, bit-reflected. */
constexpr uint32_t kPolyReflected = 0xedb88320u;

/**
 * Slice-by-8 tables: t[0] is the classic bytewise table, t[k][b] is
 * the CRC contribution of byte b followed by k zero bytes. Built at
 * compile time.
 */
struct SliceTables
{
    uint32_t t[8][256];
};

constexpr SliceTables
makeSliceTables()
{
    SliceTables s{};
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? kPolyReflected ^ (c >> 1) : c >> 1;
        s.t[0][i] = c;
    }
    for (int k = 1; k < 8; k++) {
        for (uint32_t i = 0; i < 256; i++) {
            const uint32_t prev = s.t[k - 1][i];
            s.t[k][i] = (prev >> 8) ^ s.t[0][prev & 0xff];
        }
    }
    return s;
}

constexpr SliceTables kSlice = makeSliceTables();

/** Little-endian 32-bit load from any alignment, on any host. */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
        static_cast<uint32_t>(p[1]) << 8 |
        static_cast<uint32_t>(p[2]) << 16 |
        static_cast<uint32_t>(p[3]) << 24;
}

/** Portable path: eight bytes per step through eight tables, bytewise
 *  for the last 0-7. @p crc is the raw (pre-inverted) state. */
uint32_t
updateSlice8(uint32_t crc, const uint8_t *p, size_t size)
{
    const auto &t = kSlice.t;
    while (size >= 8) {
        const uint32_t lo = crc ^ loadLe32(p);
        const uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
        p += 8;
        size -= 8;
    }
    while (size-- > 0)
        crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    return crc;
}

#if SAGE_CRC_X86

/** Inputs shorter than this go straight to slice-by-8: the fold needs
 *  four full lanes to start. */
constexpr size_t kClmulMinBytes = 64;

#define SAGE_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))

SAGE_TARGET_CLMUL inline __m128i
load(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Shift @p x up by the distance its constant pair @p k encodes and
 *  add @p next: lo(x) * lo(k) ^ hi(x) * hi(k) ^ next. */
SAGE_TARGET_CLMUL inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/**
 * Carry-less-multiply CRC-32 ("Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction", Gopal et al., Intel 2009),
 * over the same reflected IEEE polynomial as the tables above.
 *
 * Four 128-bit accumulators fold 64 bytes per step by x^512 (k1, k2);
 * they are then folded into one lane by x^128 (k3, k4), which also
 * absorbs any remaining whole 16-byte blocks. The lane is reduced
 * 128 -> 64 bits (k4, k5) and finally to 32 bits with a Barrett
 * reduction (mu, P). All constants are bit-reflected and pre-shifted
 * by one, as in the paper.
 *
 * @p size must be at least kClmulMinBytes and a multiple of 16; @p crc
 * is the raw (pre-inverted) state, and so is the return value.
 */
SAGE_TARGET_CLMUL uint32_t
updateClmul(uint32_t crc, const uint8_t *p, size_t size)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                            static_cast<int>(crc)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    p += 64;
    size -= 64;

    while (size >= 64) {
        x0 = fold(x0, k1k2, load(p));
        x1 = fold(x1, k1k2, load(p + 16));
        x2 = fold(x2, k1k2, load(p + 32));
        x3 = fold(x3, k1k2, load(p + 48));
        p += 64;
        size -= 64;
    }

    __m128i x = fold(x0, k3k4, x1);
    x = fold(x, k3k4, x2);
    x = fold(x, k3k4, x3);
    while (size >= 16) {
        x = fold(x, k3k4, load(p));
        p += 16;
        size -= 16;
    }

    // 128 -> 96 bits: low half times k4 into the high half.
    x = _mm_xor_si128(_mm_srli_si128(x, 8),
                      _mm_clmulepi64_si128(x, k3k4, 0x10));
    // 96 -> 64 bits: low 32 bits times k5 into the rest.
    x = _mm_xor_si128(_mm_srli_si128(x, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5,
                                           0x00));
    // Barrett: q = floor(x / P) via mu, then x - q * P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q),
                                                   1));
}

uint32_t
updateDispatchedClmul(uint32_t crc, const uint8_t *p, size_t size)
{
    if (size >= kClmulMinBytes) {
        const size_t blocks = size & ~size_t{15};
        crc = updateClmul(crc, p, blocks);
        p += blocks;
        size -= blocks;
    }
    return updateSlice8(crc, p, size);
}

#endif // SAGE_CRC_X86

using UpdateFn = uint32_t (*)(uint32_t, const uint8_t *, size_t);

struct CrcPath
{
    UpdateFn update;
    const char *name;
};

CrcPath
resolvePath()
{
#if SAGE_CRC_X86
    if (!simdForcedScalar() && __builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("sse4.1"))
        return {updateDispatchedClmul, "pclmul"};
#endif
    return {updateSlice8, "slice-by-8"};
}

const CrcPath &
activePath()
{
    static const CrcPath path = resolvePath();
    return path;
}

} // namespace

void
Crc32::update(const uint8_t *data, size_t size)
{
    state_ = activePath().update(state_, data, size);
}

const char *
crc32PathName()
{
    return activePath().name;
}

} // namespace sage
