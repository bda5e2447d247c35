/**
 * @file
 * SAGe interface commands (paper §5.4): the storage-facing API genome
 * analysis applications use.
 *
 *  - SAGe_Write: store a SAGe-compressed read set; the FTL stripes it
 *    across channels per the SAGe layout (§5.3).
 *  - SAGe_Read: stream the read set back, decompressed into the
 *    requested output format. Functionally this runs the software
 *    decoder; the returned timing reflects where the decompression
 *    hardware sits (host-attached vs in-SSD, paper Fig. 12).
 *
 * Non-genomic files (pigz/Spring archives for the baselines) use plain
 * read()/write(), and the SSD behaves conventionally for them.
 */

#ifndef SAGE_SSD_SAGE_DEVICE_HH
#define SAGE_SSD_SAGE_DEVICE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sage.hh"
#include "ssd/ftl.hh"
#include "ssd/nand.hh"

namespace sage {

/** Where SAGe's decompression hardware sits (paper Fig. 12). */
enum class SageIntegration : uint8_t {
    HostAttached,  ///< Mode 1/2: decompress outside the SSD.
    InStorage,     ///< Mode 3: decompress inside the SSD controller.
};

/** Result of a SAGe_Read: payload plus modeled timing. */
struct SageReadResult
{
    /** Decompressed reads, packed in the requested format. */
    std::vector<std::vector<uint8_t>> packedReads;

    /** Seconds of NAND streaming (internal). */
    double nandSeconds = 0.0;
    /** Seconds on the external link (post-decompression bytes for
     *  in-storage mode; compressed bytes for host-attached). */
    double linkSeconds = 0.0;
    /** Compressed bytes streamed from NAND. */
    uint64_t compressedBytes = 0;
    /** Bytes delivered to the analysis system. */
    uint64_t deliveredBytes = 0;
};

/**
 * Physical placement of one archive chunk on the device: the chunk's
 * compressed bytes (summed over its 13 stream slices) and the logical
 * page span covering them. Chunk slices are scattered across the
 * archive's streams, so the span is a covering extent, not a dense
 * run; its pages sit in the SAGe striped layout and can be fetched at
 * full internal bandwidth (§5.3). This is what lets a device array
 * assign whole chunks to devices and a host overlap per-chunk fetches
 * with decode (Fig. 15).
 */
struct SageChunkExtent
{
    uint64_t bytes = 0;     ///< Compressed bytes belonging to the chunk.
    uint64_t firstLpn = 0;  ///< First logical page of the covering span.
    uint64_t lpnCount = 0;  ///< Pages in the covering span.
};

/** An SSD exposing the SAGe command set plus conventional I/O. */
class SageDevice
{
  public:
    SageDevice(SsdModel model = SsdModel::pciePerformance(),
               SageIntegration integration = SageIntegration::HostAttached);

    /** SAGe_Write: store an archive under @p name (striped layout). */
    void sageWrite(const std::string &name, const SageArchive &archive);

    /**
     * SAGe_Write of one stripe shard of a larger archive: the bytes go
     * into the genomic zone like any SAGe object, but they are not a
     * decodable archive on their own — a SageDeviceArray reassembles
     * the shards through a StripedSource (Fig. 15 mode).
     */
    void sageWriteShard(const std::string &name,
                        std::vector<uint8_t> shard);

    /** SAGe_Read: decompress + format an archive (paper §5.4). */
    SageReadResult sageRead(const std::string &name, OutputFormat fmt);

    /**
     * Per-chunk placement of a stored archive (v1 archives report one
     * chunk spanning the file). Opens the archive DNA-only in place on
     * the device — the host never sees the archive bytes — and reads
     * the decoder's chunk extents. Fatal (naming the file and the
     * Status) when the archive does not open.
     */
    std::vector<SageChunkExtent>
    sageChunkExtents(const std::string &name) const;

    /** Conventional write of an opaque file (baseline archives). */
    void write(const std::string &name,
               const std::vector<uint8_t> &data);

    /**
     * Conventional read. Returns a copy: the device owns its file
     * table, and the bytes must stay valid across a later remove() or
     * write() of the same name.
     */
    std::vector<uint8_t> read(const std::string &name) const;

    /** Seconds to deliver file @p name to the host conventionally. */
    double conventionalReadSeconds(const std::string &name) const;

    /** Stored (compressed) size of a file. */
    uint64_t fileBytes(const std::string &name) const;

    /** Delete a file and trim its pages. */
    void remove(const std::string &name);

    const SageFtl &ftl() const { return ftl_; }
    const SsdModel &model() const { return model_; }
    SageIntegration integration() const { return integration_; }

  private:
    struct File
    {
        std::vector<uint8_t> data;
        uint64_t firstLpn = 0;
        uint64_t pages = 0;
        bool genomic = false;
    };

    const File &lookup(const std::string &name) const;

    SsdModel model_;
    SageIntegration integration_;
    SageFtl ftl_;
    std::map<std::string, File> files_;
};

} // namespace sage

#endif // SAGE_SSD_SAGE_DEVICE_HH
