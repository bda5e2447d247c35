#include "compress/quality.hh"

#include <algorithm>
#include <array>

#include "compress/range_coder.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/varint.hh"

namespace sage {

namespace {

/**
 * The order-2 model: one adaptive frequency row per context, flat
 * (freq[ctx * symbols + s], total[ctx]). The context is the previous
 * symbol (full resolution) and the symbol before it quantized to 4
 * levels; small enough that the rows adapt quickly even on short
 * blocks. The quantizer is a table, so no symbol pays a division.
 */
class QualityModel
{
  public:
    explicit QualityModel(unsigned symbols)
        : symbols_(symbols),
          freq_(static_cast<size_t>(symbols) * symbols * 4, 1),
          total_(static_cast<size_t>(symbols) * 4, symbols)
    {
        for (unsigned s = 0; s < symbols; s++)
            level_[s] = static_cast<uint8_t>(std::min(s * 4 / symbols, 3u));
    }

    void
    encode(RangeEncoder &enc, unsigned symbol)
    {
        const size_t ctx = context();
        encodeAdaptive(enc, &freq_[ctx * symbols_], symbols_, total_[ctx],
                       symbol);
        push(symbol);
    }

    unsigned
    decode(RangeDecoder &dec)
    {
        const size_t ctx = context();
        const unsigned symbol = decodeAdaptive(
            dec, &freq_[ctx * symbols_], symbols_, total_[ctx]);
        push(symbol);
        return symbol;
    }

  private:
    size_t context() const { return size_t{prev1_} * 4 + level_[prev2_]; }

    void
    push(unsigned symbol)
    {
        prev2_ = prev1_;
        prev1_ = symbol;
    }

    unsigned symbols_;
    std::vector<uint32_t> freq_;
    std::vector<uint32_t> total_;
    std::array<uint8_t, 256> level_{};
    unsigned prev1_ = 0, prev2_ = 0;
};

} // namespace

uint64_t
QualityArchive::compressedBytes() const
{
    uint64_t bytes = alphabet.size() + 16;
    for (const auto &block : blocks)
        bytes += block.size() + 8;
    // Read lengths ride along as ~1-2 byte varints in a real container;
    // count 2 bytes each as a faithful estimate.
    bytes += readLengths.size() * 2;
    return bytes;
}

uint64_t
QualityArchive::totalChars() const
{
    uint64_t total = 0;
    for (uint64_t n : blockChars)
        total += n;
    return total;
}

void
requireValidQualityConfig(const QualityConfig &config)
{
    if (config.blockChars == 0)
        sage_fatal("quality blockChars must be at least 1: a zero-char "
                   "block never advances through the stream");
}

QualityArchive
compressQuality(const std::vector<std::string> &quals,
                const QualityConfig &config, uint64_t chunk_reads)
{
    requireValidQualityConfig(config);
    QualityArchive archive;

    // Build the alphabet map.
    std::array<int, 256> symbol_of;
    symbol_of.fill(-1);
    for (const auto &q : quals) {
        for (char c : q) {
            const auto u = static_cast<uint8_t>(c);
            if (symbol_of[u] < 0) {
                symbol_of[u] = static_cast<int>(archive.alphabet.size());
                archive.alphabet.push_back(c);
            }
        }
    }
    if (archive.alphabet.empty())
        archive.alphabet.push_back('!');
    const unsigned alphabet = archive.alphabet.size();

    // Flatten characters; record per-read lengths and the offset of
    // each chunk start after the first.
    std::string flat;
    std::vector<uint64_t> chunk_starts;
    for (size_t r = 0; r < quals.size(); r++) {
        if (chunk_reads > 0 && r > 0 && r % chunk_reads == 0)
            chunk_starts.push_back(flat.size());
        archive.readLengths.push_back(static_cast<uint32_t>(quals[r].size()));
        flat += quals[r];
    }

    // Encode independent blocks with fresh model state each. A block
    // closes at blockChars chars, or earlier at the first chunk start
    // once it holds a quarter block: a chunk then decodes only its own
    // block, and chunks under a quarter block share one.
    const uint64_t min_chars = std::max<uint64_t>(1, config.blockChars / 4);
    size_t next_start = 0;
    uint64_t off = 0;
    do {
        uint64_t len =
            std::min<uint64_t>(config.blockChars, flat.size() - off);
        while (next_start < chunk_starts.size() &&
               chunk_starts[next_start] - off < min_chars)
            next_start++;
        if (next_start < chunk_starts.size())
            len = std::min(len, chunk_starts[next_start] - off);
        RangeEncoder enc;
        QualityModel model(alphabet);
        for (uint64_t i = 0; i < len; i++) {
            const int sym =
                symbol_of[static_cast<uint8_t>(flat[off + i])];
            sage_assert(sym >= 0, "quality symbol missing from alphabet");
            model.encode(enc, static_cast<unsigned>(sym));
        }
        archive.blocks.push_back(enc.finish());
        archive.blockChars.push_back(len);
        off += len;
    } while (off < flat.size());
    return archive;
}

std::vector<uint8_t>
packQuality(const QualityArchive &archive)
{
    std::vector<uint8_t> out;
    putVarint(out, archive.alphabet.size());
    out.insert(out.end(), archive.alphabet.begin(), archive.alphabet.end());
    putVarint(out, archive.readLengths.size());
    for (uint32_t len : archive.readLengths)
        putVarint(out, len);
    putVarint(out, archive.blocks.size());
    for (size_t b = 0; b < archive.blocks.size(); b++) {
        putVarint(out, archive.blockChars[b]);
        putVarint(out, archive.blocks[b].size());
        out.insert(out.end(), archive.blocks[b].begin(),
                   archive.blocks[b].end());
    }
    return out;
}

StatusOr<QualityLayout>
tryParseQualityStream(const uint8_t *data, size_t size)
try {
    QualityLayout layout;
    size_t pos = 0;
    const uint64_t alpha_len = getVarint(data, size, pos);
    // compressQuality emits 1..256 distinct characters; an empty model
    // would divide by zero in the range decoder.
    sage_check_data(alpha_len >= 1 && alpha_len <= 256, Corrupt,
                    "quality alphabet of ", alpha_len, " symbols");
    sage_check_data(alpha_len <= size - pos, Truncated,
                    "quality alphabet runs past the stream end");
    layout.alphabet.assign(reinterpret_cast<const char *>(data) + pos,
                           static_cast<size_t>(alpha_len));
    pos += alpha_len;

    // Each varint takes at least one byte, so the remaining bytes bound
    // both counts before anything is reserved.
    const uint64_t reads = getVarint(data, size, pos);
    sage_check_data(reads <= size - pos, Truncated,
                    "quality stream holds fewer than ", reads,
                    " read lengths");
    layout.readLengths.reserve(static_cast<size_t>(reads));
    uint64_t read_chars = 0;
    for (uint64_t i = 0; i < reads; i++) {
        const uint64_t len = getVarint(data, size, pos);
        sage_check_data(len <= UINT32_MAX, Corrupt, "quality read length ",
                        len, " out of range");
        layout.readLengths.push_back(static_cast<uint32_t>(len));
        read_chars += len;
    }

    const uint64_t blocks = getVarint(data, size, pos);
    sage_check_data(blocks <= size - pos, Truncated,
                    "quality stream holds fewer than ", blocks, " blocks");
    layout.blocks.reserve(static_cast<size_t>(blocks));
    uint64_t block_chars = 0;
    for (uint64_t b = 0; b < blocks; b++) {
        QualityBlockExtent block;
        block.chars = getVarint(data, size, pos);
        block.size = getVarint(data, size, pos);
        sage_check_data(block.size <= size - pos, Truncated,
                        "quality block runs past the stream end");
        sage_check_data(block.chars <= read_chars - block_chars, Corrupt,
                        "quality archive length mismatch");
        block.offset = pos;
        pos += block.size;
        block_chars += block.chars;
        layout.blocks.push_back(block);
    }
    sage_check_data(block_chars == read_chars, Corrupt,
                    "quality archive length mismatch");
    return StatusOr<QualityLayout>(std::move(layout));
} catch (const StatusError &err) {
    return err.status();
}

void
decodeQualityBlockInto(std::string_view alphabet, const uint8_t *data,
                       size_t size, uint64_t chars, char *out)
{
    if (chars == 0)
        return;
    sage_check_data(!alphabet.empty() && alphabet.size() <= 256, Corrupt,
                    "quality block decode over an alphabet of ",
                    alphabet.size(), " symbols");
    const unsigned symbols = static_cast<unsigned>(alphabet.size());
    RangeDecoder dec(data, size);
    QualityModel model(symbols);
    for (uint64_t i = 0; i < chars; i++)
        out[i] = alphabet[model.decode(dec)];
}

std::string
decompressQualityBlock(const QualityArchive &archive, size_t block_index)
{
    sage_check_data(block_index < archive.blocks.size() &&
                    block_index < archive.blockChars.size(), Corrupt,
                    "quality block index out of range");
    const auto &block = archive.blocks[block_index];
    std::string out(static_cast<size_t>(archive.blockChars[block_index]),
                    '\0');
    decodeQualityBlockInto(archive.alphabet, block.data(), block.size(),
                           out.size(), out.data());
    return out;
}

std::vector<std::string>
decompressQuality(const QualityArchive &archive)
{
    sage_check_data(archive.blockChars.size() == archive.blocks.size(),
                    Corrupt, "quality archive block count mismatch");
    uint64_t read_chars = 0;
    for (uint32_t len : archive.readLengths)
        read_chars += len;
    sage_check_data(read_chars == archive.totalChars(), Corrupt,
                    "quality archive length mismatch");
    std::string flat(static_cast<size_t>(read_chars), '\0');
    uint64_t at = 0;
    for (size_t b = 0; b < archive.blocks.size(); b++) {
        decodeQualityBlockInto(archive.alphabet, archive.blocks[b].data(),
                               archive.blocks[b].size(),
                               archive.blockChars[b], flat.data() + at);
        at += archive.blockChars[b];
    }

    std::vector<std::string> out;
    out.reserve(archive.readLengths.size());
    uint64_t off = 0;
    for (uint32_t len : archive.readLengths) {
        out.push_back(flat.substr(off, len));
        off += len;
    }
    return out;
}

} // namespace sage
