#include "ssd/sage_device.hh"

#include <algorithm>

#include "core/decoder.hh"
#include "io/session.hh"
#include "util/logging.hh"

namespace sage {

SageDevice::SageDevice(SsdModel model, SageIntegration integration)
    : model_(model), integration_(integration), ftl_(model.config())
{
}

void
SageDevice::sageWrite(const std::string &name, const SageArchive &archive)
{
    sageWriteShard(name, archive.bytes);
}

void
SageDevice::sageWriteShard(const std::string &name,
                           std::vector<uint8_t> shard)
{
    File file;
    file.data = std::move(shard);
    file.genomic = true;
    file.pages = (file.data.size() + model_.config().pageBytes - 1)
        / model_.config().pageBytes;
    file.firstLpn = ftl_.writeGenomic(std::max<uint64_t>(file.pages, 1));
    files_[name] = std::move(file);
}

SageReadResult
SageDevice::sageRead(const std::string &name, OutputFormat fmt)
{
    const File &file = lookup(name);
    sage_assert(file.genomic, "SAGe_Read on a non-genomic file: ", name);

    SageReadResult result;
    result.compressedBytes = file.data.size();

    // Functional decompression through the shared decoder core. The
    // accelerator path is DNA-only: quality stays compressed on the
    // device until a host application asks for specific blocks. The
    // file is resident, so any bit flip dies on the container CRC
    // before a read is produced.
    const MemorySource source(file.data);
    SageReaderOptions options;
    options.dnaOnly = true;
    options.verifyChecksum = true;
    result.packedReads = SageReader(source, options).decodeAllPacked(fmt);
    for (const auto &read : result.packedReads)
        result.deliveredBytes += read.size();

    // Timing: compressed stream comes off NAND at full striped
    // bandwidth (the SAGe layout's whole point, §5.3).
    result.nandSeconds = model_.internalReadSeconds(file.data.size());
    if (integration_ == SageIntegration::InStorage) {
        // Mode 3: decompressed data crosses the external link.
        result.linkSeconds =
            model_.externalTransferSeconds(result.deliveredBytes);
    } else {
        // Modes 1/2: compressed data crosses the link; decompression
        // happens host-side (by SAGe hardware or software).
        result.linkSeconds =
            model_.externalTransferSeconds(file.data.size());
    }
    return result;
}

void
SageDevice::write(const std::string &name,
                  const std::vector<uint8_t> &data)
{
    File file;
    file.data = data;
    file.genomic = false;
    file.pages = (data.size() + model_.config().pageBytes - 1)
        / model_.config().pageBytes;
    file.firstLpn = ftl_.writeNormal(std::max<uint64_t>(file.pages, 1));
    files_[name] = std::move(file);
}

std::vector<uint8_t>
SageDevice::read(const std::string &name) const
{
    return lookup(name).data;
}

std::vector<SageChunkExtent>
SageDevice::sageChunkExtents(const std::string &name) const
{
    const File &file = lookup(name);
    sage_assert(file.genomic, "chunk extents of a non-genomic file: ",
                name);

    // The decoder owns the chunk layout (the chunk table for v2, one
    // chunk spanning every stream for v1); a DNA-only open parses it
    // without touching the host streams.
    const MemorySource source(file.data);
    StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source, /*dna_only=*/true);
    if (!opened.ok())
        sage_fatal(name, ": ", opened.status().toString());
    const SageDecoder &decoder = *opened.value();

    const uint32_t page = model_.config().pageBytes;
    std::vector<SageChunkExtent> out;
    out.reserve(decoder.chunkCount());
    for (size_t c = 0; c < decoder.chunkCount(); c++) {
        SageChunkExtent extent;
        uint64_t min_byte = UINT64_MAX;
        uint64_t max_byte = 0;
        for (const StreamExtent &slice : decoder.chunkExtents(c)) {
            if (slice.size == 0)
                continue;
            extent.bytes += slice.size;
            min_byte = std::min(min_byte, slice.offset);
            max_byte = std::max(max_byte, slice.offset + slice.size);
        }
        if (extent.bytes > 0) {
            const uint64_t first_page = min_byte / page;
            const uint64_t last_page = (max_byte - 1) / page;
            extent.firstLpn = file.firstLpn + first_page;
            extent.lpnCount = last_page - first_page + 1;
        }
        out.push_back(extent);
    }
    return out;
}

double
SageDevice::conventionalReadSeconds(const std::string &name) const
{
    const File &file = lookup(name);
    // Internal fetch and external transfer overlap; the slower side
    // dominates a streaming read.
    const double internal = file.genomic
        ? model_.internalReadSeconds(file.data.size())
        : static_cast<double>(file.data.size())
              / model_.internalReadBandwidth();
    const double external =
        model_.externalTransferSeconds(file.data.size());
    return std::max(internal, external);
}

uint64_t
SageDevice::fileBytes(const std::string &name) const
{
    return lookup(name).data.size();
}

void
SageDevice::remove(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return;
    ftl_.trim(it->second.firstLpn, it->second.pages);
    files_.erase(it);
}

const SageDevice::File &
SageDevice::lookup(const std::string &name) const
{
    auto it = files_.find(name);
    if (it == files_.end())
        sage_fatal("no such file on device: ", name);
    return it->second;
}

} // namespace sage
