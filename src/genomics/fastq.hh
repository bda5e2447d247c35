/**
 * @file
 * FASTQ serialization: the text format read sets are delivered in
 * (paper §2.1) and the format the data-preparation stage must produce for
 * analysis tools that want ASCII input.
 */

#ifndef SAGE_GENOMICS_FASTQ_HH
#define SAGE_GENOMICS_FASTQ_HH

#include <string>
#include <string_view>

#include "genomics/read.hh"
#include "util/status.hh"

namespace sage {

/** Render a read set as FASTQ text. */
std::string toFastq(const ReadSet &rs);

/**
 * Parse untrusted FASTQ text into a ReadSet named @p name.
 *
 * Tolerates '+' comment repetition, CRLF line ends and a missing
 * trailing newline. A structurally broken record (no '@', truncated,
 * no '+' separator, quality length differing from the base count,
 * a byte that is not a base in the sequence) comes back as Corrupt,
 * naming the record.
 */
StatusOr<ReadSet> tryFromFastq(std::string_view text,
                               const std::string &name = "");

/** tryFromFastq(), fatal (naming the Status) on a broken record. */
ReadSet fromFastq(std::string_view text, const std::string &name = "");

/** Write a read set to a FASTQ file on disk. */
void writeFastqFile(const ReadSet &rs, const std::string &path);

/** Read a FASTQ file from disk (fatal on an I/O error or a broken
 *  record). */
ReadSet readFastqFile(const std::string &path);

} // namespace sage

#endif // SAGE_GENOMICS_FASTQ_HH
