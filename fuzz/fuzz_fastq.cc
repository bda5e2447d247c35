/**
 * @file
 * libFuzzer entry point for the FASTQ text surface: tryFromFastq over
 * arbitrary bytes, the parser every compress path (CLI, SageWriter
 * inputs, the benchmark corpus) reads untrusted FASTQ through. The
 * contract under test is "a ReadSet or a Corrupt Status, never a
 * crash"; a parsed set must also hold only records whose quality line
 * is empty or as long as the bases.
 *
 * Built behind -DSAGE_BUILD_FUZZERS=ON; see fuzz/CMakeLists.txt. Seeds
 * live in fuzz/corpus/fastq/: a valid record, CRLF line ends, no
 * trailing newline, a truncated record, a missing '+', a quality
 * length mismatch, and a control byte in the bases.
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "genomics/fastq.hh"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    const std::string_view text(reinterpret_cast<const char *>(data),
                                size);
    const sage::StatusOr<sage::ReadSet> parsed =
        sage::tryFromFastq(text, "fuzz");
    if (!parsed.ok()) {
        if (parsed.status().code() != sage::StatusCode::Corrupt)
            std::abort();
        return 0;
    }
    for (const sage::Read &read : parsed->reads) {
        if (!read.quals.empty() && read.quals.size() != read.bases.size())
            std::abort();
    }
    return 0;
}
