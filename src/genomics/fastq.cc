#include "genomics/fastq.hh"

#include <fstream>

#include "genomics/kernels.hh"
#include "io/file_stream.hh"
#include "util/logging.hh"

namespace sage {

std::string
toFastq(const ReadSet &rs)
{
    std::string out;
    out.reserve(rs.fastqBytes());
    for (const auto &read : rs.reads) {
        out.push_back('@');
        out.append(read.header);
        out.push_back('\n');
        out.append(read.bases);
        out.push_back('\n');
        out.append("+\n");
        out.append(read.quals);
        out.push_back('\n');
    }
    return out;
}

StatusOr<ReadSet>
tryFromFastq(std::string_view text, const std::string &name)
{
    ReadSet rs;
    rs.name = name;

    size_t pos = 0;
    auto next_line = [&](std::string_view &line) -> bool {
        if (pos >= text.size())
            return false;
        size_t end = text.find('\n', pos);
        if (end == std::string_view::npos)
            end = text.size();
        line = text.substr(pos, end - pos);
        // CRLF input: the '\r' is line framing, not data — without
        // this it would land in the stored bases/quals (and trip the
        // base-character guard below).
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        pos = end + 1;
        return true;
    };

    std::string_view header, bases, plus, quals;
    while (next_line(header)) {
        if (header.empty())
            continue;
        if (header[0] != '@') {
            return Status::corrupt("FASTQ record does not start with "
                                   "'@': ", header);
        }
        if (!next_line(bases) || !next_line(plus) || !next_line(quals))
            return Status::corrupt("truncated FASTQ record: ", header);
        if (plus.empty() || plus[0] != '+') {
            return Status::corrupt("FASTQ separator line missing '+': ",
                                   plus, " in record ", header);
        }
        if (!quals.empty() && quals.size() != bases.size()) {
            return Status::corrupt("FASTQ quality length ", quals.size(),
                                   " != base length ", bases.size(),
                                   " in record ", header);
        }
        // Bulk-validate the sequence line (table-driven scan): binary
        // garbage and control characters are rejected here with the
        // record named, instead of silently becoming N bases later.
        const size_t bad =
            kernels::findInvalidBase(bases.data(), bases.size());
        if (bad < bases.size()) {
            return Status::corrupt(
                "FASTQ record ", header, ": invalid base character ",
                "(byte value ",
                static_cast<unsigned>(static_cast<uint8_t>(bases[bad])),
                ") at position ", bad);
        }
        Read read;
        read.header = std::string(header.substr(1));
        read.bases = std::string(bases);
        read.quals = std::string(quals);
        rs.reads.push_back(std::move(read));
    }
    return rs;
}

ReadSet
fromFastq(std::string_view text, const std::string &name)
{
    StatusOr<ReadSet> parsed = tryFromFastq(text, name);
    if (!parsed.ok())
        sage_fatal(parsed.status().toString());
    return std::move(parsed.value());
}

void
writeFastqFile(const ReadSet &rs, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        sage_fatal("cannot open for writing: ", path);
    const std::string text = toFastq(rs);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

ReadSet
readFastqFile(const std::string &path)
{
    // FileSource reports every failure mode — missing file, I/O error,
    // short read — fatally with the offending path; the old ifstream
    // slurp silently truncated on read errors.
    const FileSource source(path);
    const std::vector<uint8_t> bytes = source.readAll();
    if (bytes.empty())
        return fromFastq("", path);
    return fromFastq(
        std::string_view(reinterpret_cast<const char *>(bytes.data()),
                         bytes.size()),
        path);
}

} // namespace sage
