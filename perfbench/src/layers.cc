/**
 * @file
 * Per-layer metrics of the traced run (see layers.hh).
 */

#include "layers.hh"

#include <algorithm>
#include <memory>

#include "compress/gpzip.hh"
#include "compress/quality.hh"
#include "core/decoder.hh"
#include "genomics/alphabet.hh"
#include "genomics/fastq.hh"
#include "genomics/kernels.hh"
#include "io/file_stream.hh"
#include "io/session.hh"
#include "net/protocol.hh"
#include "service/service.hh"
#include "trace.hh"
#include "util/crc32.hh"
#include "util/thread_pool.hh"

namespace perfbench {

const std::vector<LayerMetricDef> &
layerMetricDefs()
{
    static const std::vector<LayerMetricDef> defs = {
        {"core.open_ms", "ms"},
        {"core.open_dna_ms", "ms"},
        {"core.chunk_decode_ms", "ms"},
        {"core.chunk_decode_dna_ms", "ms"},
        {"core.pool_speedup", "x"},
        {"core.allocs_per_chunk", "count"},
        {"core.encode_mbps", "MB/s"},
        {"core.map_s", "s"},
        {"core.tune_s", "s"},
        {"compress.quality_decode_mbps", "MB/s"},
        {"compress.quality_encode_mbps", "MB/s"},
        {"compress.header_decode_mbps", "MB/s"},
        {"genomics.fastq_format_mbps", "MB/s"},
        {"genomics.fastq_parse_mbps", "MB/s"},
        {"genomics.pack_mbps", "MB/s"},
        {"genomics.unpack_mbps", "MB/s"},
        {"genomics.revcomp_mbps", "MB/s"},
        {"io.fetch_ms", "ms"},
        {"io.fetch_calls_per_chunk", "count"},
        {"io.read_amplification", "ratio"},
        {"service.hit_ms", "ms"},
        {"service.miss_ms", "ms"},
        {"service.allocs_per_hit", "count"},
        {"service.decode_ratio", "ratio"},
        {"service.evictions_per_req", "count"},
        {"service.ghost_hits", "count"},
        {"service.queue_depth_max", "count"},
        {"net.encode_ms", "ms"},
        {"net.verify_ms", "ms"},
        {"util.crc_mbps", "MB/s"},
        {"net.parse_ms", "ms"},
        {"net.allocs_per_reply", "count"},
        {"net.residual_ms", "ms"},
        {"net.wire_overhead", "ratio"},
        {"net.open_ms", "ms"},
        {"net.p99_ms", "ms"},
    };
    return defs;
}

namespace {

/** Cap on replayed requests (keeps the traced run short). */
constexpr size_t kMaxReplay = 600;
/** Cap on chunks a per-chunk probe visits. */
constexpr size_t kMaxProbeChunks = 32;

/**
 * Median seconds of one call to @p fn, repeated at least @p min_reps
 * times and until @p min_seconds of calls have run (at most
 * @p max_reps). Each call is one span named @p span.
 */
template <typename Fn>
double
medianCall(const char *span, const Fn &fn, unsigned min_reps = 3,
           double min_seconds = 0.15, unsigned max_reps = 400)
{
    std::vector<double> samples;
    double total = 0.0;
    while (samples.size() < max_reps &&
           (samples.size() < min_reps || total < min_seconds)) {
        const double start = nowSeconds();
        {
            ScopedSpan scoped(span);
            fn();
        }
        samples.push_back(nowSeconds() - start);
        total += samples.back();
    }
    return median(samples);
}

double
mbps(uint64_t bytes, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds
                         : 0.0;
}

/** Chunk holding stored-order read @p read given chunk start reads. */
size_t
chunkOf(const std::vector<uint64_t> &starts, uint64_t read)
{
    return static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), read) -
        starts.begin() - 1);
}

std::unique_ptr<sage::SageDecoder>
openDecoder(const sage::ByteSource &source, bool dna_only)
{
    auto decoder = sage::SageDecoder::tryOpen(source, dna_only);
    return decoder.ok() ? std::move(decoder.value()) : nullptr;
}

/** Median time and allocations of tryDecodeChunkShared per chunk. */
bool
probeChunkDecode(const Archive &archive, bool dna_only, double &ms,
                 double &allocs)
{
    sage::FileSource file(archive.path);
    auto decoder = openDecoder(file, dna_only);
    if (!decoder)
        return false;
    std::vector<double> times, counts;
    const size_t chunks = std::min(decoder->chunkCount(), kMaxProbeChunks);
    for (size_t c = 0; c < chunks; c++) {
        const uint64_t allocs_before = threadAllocations();
        const double start = nowSeconds();
        bool ok = false;
        {
            ScopedSpan span(dna_only ? "core.chunk_decode_dna"
                                     : "core.chunk_decode");
            auto reads = decoder->tryDecodeChunkShared(c);
            ok = reads.ok() && reads->size() == decoder->chunkReadCount(c);
        }
        times.push_back(nowSeconds() - start);
        counts.push_back(
            static_cast<double>(threadAllocations() - allocs_before));
        if (!ok)
            return false;
    }
    ms = median(times) * 1e3;
    allocs = median(counts);
    return true;
}

} // namespace

uint64_t
replayTraffic(const TrafficCapture &traffic, MetricMap &out)
{
    const std::vector<Archive> &archives = *traffic.archives;
    const size_t n_archives = archives.size();
    // Each archive served by the service layer over a counting source,
    // with the cache partition the registry would give it.
    sage::ThreadPool pool(traffic.config.poolThreads);
    std::vector<std::unique_ptr<sage::FileSource>> files;
    std::vector<std::unique_ptr<CountingSource>> sources;
    std::vector<std::unique_ptr<sage::SageArchiveService>> services;
    std::vector<std::vector<uint64_t>> chunk_starts(n_archives);
    uint64_t decoded = 0;
    for (const Archive &archive : archives)
        decoded += archive.decodedBytes;
    const bool fits = traffic.config.cacheBudgetBytes >= decoded;
    for (size_t a = 0; a < n_archives; a++) {
        files.push_back(std::make_unique<sage::FileSource>(archives[a].path));
        sources.push_back(std::make_unique<CountingSource>(*files.back()));
        sage::ServiceOptions options;
        options.cacheBudgetBytes =
            traffic.config.cacheBudgetBytes / n_archives;
        options.cacheShards = kCacheShards;
        options.pool = &pool;
        services.push_back(std::make_unique<sage::SageArchiveService>(
            *sources.back(), options));
        for (size_t c = 0; c < services.back()->chunkCount(); c++)
            chunk_starts[a].push_back(services.back()->chunkFirstRead(c));
        if (fits) {  // The live run warmed every chunk first.
            for (size_t c = 0; c < services.back()->chunkCount(); c++)
                services.back()->readChunk(c, sage::RequestOptions{});
        }
    }
    std::vector<FetchCounters> fetch_start;
    std::vector<sage::ChunkCacheStats> cache_start;
    for (size_t a = 0; a < n_archives; a++) {
        fetch_start.push_back(sources[a]->snapshot());
        cache_start.push_back(services[a]->stats().cache);
    }

    uint64_t failures = 0, chunks_touched = 0, payload = 0;
    std::vector<double> service_s, encode_s, verify_s, parse_s, allocs;
    const size_t replays = std::min(traffic.log.size(), kMaxReplay);
    for (size_t i = 0; i < replays; i++) {
        const RequestRecord &record = traffic.log[i];
        OpScope scope;
        double start = nowSeconds();
        sage::ReadResult result;
        {
            ScopedSpan span("service.read_range");
            result = services[record.archive]->readRange(
                record.first, record.count, sage::RequestOptions{});
        }
        service_s.push_back(nowSeconds() - start);
        const std::vector<uint64_t> &starts = chunk_starts[record.archive];
        chunks_touched += chunkOf(starts, record.first + record.count - 1) -
            chunkOf(starts, record.first) + 1;
        if (!result.ok() || result.reads.size() != record.count ||
            rangeDigest(result.reads, record.first) !=
                expectedRangeDigest(archives[record.archive], record.first,
                                    record.count)) {
            failures++;
            continue;
        }
        for (const sage::Read &read : result.reads)
            payload += payloadBytes(read);

        std::vector<uint8_t> frame;
        uint64_t allocs_before = threadAllocations();
        start = nowSeconds();
        {
            ScopedSpan span("net.append_read_reply");
            sage::net::appendReadReply(frame, sage::net::MsgType::ReadRange,
                                       i + 1, result.reads);
        }
        encode_s.push_back(nowSeconds() - start);
        uint64_t reply_allocs = threadAllocations() - allocs_before;

        const uint8_t *body = frame.data() + sage::net::kLenBytes;
        const size_t size = frame.size() - sage::net::kLenBytes;
        size_t body_size = 0;
        start = nowSeconds();
        sage::net::FrameVerdict verdict;
        {
            ScopedSpan span("net.verify_frame");
            verdict = sage::net::verifyFrame(body, size, &body_size);
        }
        verify_s.push_back(nowSeconds() - start);
        if (verdict != sage::net::FrameVerdict::Ok) {
            failures++;
            continue;
        }

        allocs_before = threadAllocations();
        start = nowSeconds();
        bool parsed = false;
        {
            ScopedSpan span("net.parse");
            auto header = sage::net::parseReplyHeader(body, body_size);
            auto reads = sage::net::parseReadReplyPayload(
                body + sage::net::kReplyHeaderBytes,
                body_size - sage::net::kReplyHeaderBytes);
            parsed = header.ok() && reads.ok() &&
                reads->size() == record.count;
        }
        parse_s.push_back(nowSeconds() - start);
        reply_allocs += threadAllocations() - allocs_before;
        allocs.push_back(static_cast<double>(reply_allocs));
        if (!parsed)
            failures++;
    }

    uint64_t decodes = 0, fetched = 0, evictions = 0, ghost_hits = 0;
    for (size_t a = 0; a < n_archives; a++) {
        const FetchCounters fetch = sources[a]->snapshot();
        decodes += fetch.batchCalls - fetch_start[a].batchCalls;
        fetched += fetch.bytes - fetch_start[a].bytes;
        const sage::ChunkCacheStats cache = services[a]->stats().cache;
        evictions += cache.evictions - cache_start[a].evictions;
        ghost_hits += cache.ghostHits - cache_start[a].ghostHits;
    }
    services.clear();

    std::vector<double> client_s;
    for (size_t i = 0; i < replays; i++)
        client_s.push_back(traffic.log[i].seconds);
    const double n = static_cast<double>(std::max<size_t>(replays, 1));
    out["service.decode_ratio"] =
        chunks_touched == 0 ? 0.0
                            : static_cast<double>(decodes) /
            static_cast<double>(chunks_touched);
    out["service.evictions_per_req"] = static_cast<double>(evictions) / n;
    out["service.ghost_hits"] = static_cast<double>(ghost_hits);
    out["service.queue_depth_max"] =
        static_cast<double>(traffic.maxQueueDepth);
    out["io.read_amplification"] =
        payload == 0 ? 0.0
                     : static_cast<double>(fetched) /
            static_cast<double>(payload);
    out["net.encode_ms"] = median(encode_s) * 1e3;
    out["net.verify_ms"] = median(verify_s) * 1e3;
    out["net.parse_ms"] = median(parse_s) * 1e3;
    out["net.allocs_per_reply"] = median(allocs);
    // appendReadReply computes the sender's CRC-32 itself, so only the
    // receiver's verifyFrame is added on top of the encode time.
    out["net.residual_ms"] = (median(client_s) -
                              (median(service_s) + median(encode_s) +
                               median(verify_s) + median(parse_s))) *
        1e3;
    out["net.wire_overhead"] = traffic.payloadBytes == 0
        ? 0.0
        : static_cast<double>(traffic.bytesOut) /
            static_cast<double>(traffic.payloadBytes);
    out["net.p99_ms"] = quantile(traffic.untracedLatencies, 0.99) * 1e3;
    return failures;
}

uint64_t
probeLayers(const Workload &workload, const std::vector<Archive> &archives,
            MetricMap &out)
{
    uint64_t failures = 0;
    const Archive &archive = archives.front();
    const RunOptions &options = workload.options();

    // ---- core: encoder (from setup), open, chunk decode, pool ---------
    uint64_t encoded = 0;
    double write_s = 0.0, map_s = 0.0, tune_s = 0.0;
    for (const Archive &a : archives) {
        encoded += a.payloadBytes;
        write_s += a.writeSeconds;
        map_s += a.writeStats.mapSeconds;
        tune_s += a.writeStats.tuneSeconds;
    }
    out["core.encode_mbps"] = mbps(encoded, write_s);
    out["core.map_s"] = map_s;
    out["core.tune_s"] = tune_s;

    sage::FileSource file(archive.path);
    for (const bool dna_only : {false, true}) {
        bool opened = true;
        const double seconds = medianCall(
            dna_only ? "core.open_dna" : "core.open",
            [&] { opened = opened && openDecoder(file, dna_only) != nullptr; });
        out[dna_only ? "core.open_dna_ms" : "core.open_ms"] = seconds * 1e3;
        failures += opened ? 0 : 1;

        double ms = 0.0, allocs = 0.0;
        failures += probeChunkDecode(archive, dna_only, ms, allocs) ? 0 : 1;
        out[dna_only ? "core.chunk_decode_dna_ms" : "core.chunk_decode_ms"] =
            ms;
        if (!dna_only)
            out["core.allocs_per_chunk"] = allocs;
    }

    double pass_s[2] = {0.0, 0.0};
    const unsigned threads[2] = {1, workload.poolThreads()};
    for (int i = 0; i < 2; i++) {
        sage::ThreadPool pool(threads[i]);
        pass_s[i] = medianCall("core.decode_all_packed", [&] {
            for (const Archive &a : archives) {
                sage::SageReaderOptions reader_options;
                reader_options.dnaOnly = true;
                sage::SageReader reader(a.path, reader_options);
                if (reader.decodeAllPacked(sage::OutputFormat::TwoBit, &pool)
                        .size() != a.reads)
                    failures++;
            }
        }, 3, 0.3, 50);
    }
    out["core.pool_speedup"] = pass_s[1] > 0.0 ? pass_s[0] / pass_s[1] : 0.0;

    // ---- io: fetches through a counting source ------------------------
    {
        CountingSource counting(file);
        auto decoder = openDecoder(counting, false);
        if (!decoder) {
            failures++;
        } else {
            const FetchCounters opened = counting.snapshot();
            for (size_t c = 0; c < decoder->chunkCount(); c++) {
                ScopedSpan span("core.chunk_decode");
                failures += decoder->tryDecodeChunkShared(c).ok() ? 0 : 1;
            }
            const FetchCounters done = counting.snapshot();
            const uint64_t fetches = done.batchCalls - opened.batchCalls;
            out["io.fetch_ms"] = fetches == 0
                ? 0.0
                : static_cast<double>(done.nanos - opened.nanos) / 1e6 /
                    static_cast<double>(fetches);
            out["io.fetch_calls_per_chunk"] =
                static_cast<double>(done.calls) /
                static_cast<double>(std::max<size_t>(1, decoder->chunkCount()));
        }
    }

    // ---- compress / genomics / util on the generated inputs ------------
    const GeneratedSet generated =
        generateSet(workload.specs().front(), options.seed, 0);
    const std::vector<sage::Read> &reads = generated.reads.reads;
    std::vector<std::string> quals;
    std::string headers, bases;
    uint64_t quality_chars = 0;
    for (const sage::Read &read : reads) {
        quals.push_back(read.quals);
        quality_chars += read.quals.size();
        headers += read.header;
        headers += '\n';
        // 2-bit packing takes ACGT-only sequence (N reads go 3-bit).
        if (sage::isAcgtOnly(read.bases))
            bases += read.bases;
    }

    sage::QualityArchive quality;
    out["compress.quality_encode_mbps"] = mbps(
        quality_chars, medianCall("compress.quality_encode", [&] {
            quality = sage::compressQuality(quals);
        }));
    out["compress.quality_decode_mbps"] = mbps(
        quality_chars, medianCall("compress.quality_decode", [&] {
            if (sage::decompressQuality(quality).size() != quals.size())
                failures++;
        }));
    const std::vector<uint8_t> header_blob = sage::gpzip::compress(headers);
    out["compress.header_decode_mbps"] = mbps(
        headers.size(), medianCall("compress.header_decode", [&] {
            if (sage::gpzip::decompress(header_blob).size() != headers.size())
                failures++;
        }));

    out["genomics.fastq_format_mbps"] = mbps(
        generated.fastq.size(), medianCall("genomics.to_fastq", [&] {
            if (sage::toFastq(generated.reads).size() != generated.fastq.size())
                failures++;
        }));
    out["genomics.fastq_parse_mbps"] = mbps(
        generated.fastq.size(), medianCall("genomics.from_fastq", [&] {
            if (sage::fromFastq(generated.fastq).reads.size() != reads.size())
                failures++;
        }));
    std::vector<uint8_t> packed((bases.size() + 3) / 4);
    std::string scratch(bases.size(), 'N');
    out["genomics.pack_mbps"] = mbps(
        bases.size(), medianCall("genomics.pack2bit", [&] {
            sage::kernels::pack2bit(bases.data(), bases.size(), packed.data());
        }));
    out["genomics.unpack_mbps"] = mbps(
        bases.size(), medianCall("genomics.unpack2bit", [&] {
            sage::kernels::unpack2bit(packed.data(), packed.size(),
                                      bases.size(), scratch.data());
        }));
    out["genomics.revcomp_mbps"] = mbps(
        bases.size(), medianCall("genomics.reverse_complement", [&] {
            sage::kernels::reverseComplement(bases.data(), bases.size(),
                                             scratch.data());
        }));
    const auto *fastq_bytes =
        reinterpret_cast<const uint8_t *>(generated.fastq.data());
    const uint32_t fastq_crc =
        sage::Crc32::of(fastq_bytes, generated.fastq.size());
    out["util.crc_mbps"] = mbps(
        generated.fastq.size(), medianCall("util.crc32", [&] {
            if (sage::Crc32::of(fastq_bytes, generated.fastq.size()) !=
                fastq_crc)
                failures++;
        }));

    // ---- service + registry: cold and warm range reads -----------------
    {
        sage::ThreadPool pool(std::max(1u, workload.poolThreads()));
        sage::MultiArchiveOptions registry_options;
        registry_options.globalCacheBudgetBytes = 4 * archive.decodedBytes;
        registry_options.maxOpenArchives = 1;
        registry_options.pool = &pool;
        sage::MultiArchiveService registry(workload.dir(), registry_options);
        double start = nowSeconds();
        sage::StatusOr<sage::ArchiveMeta> meta = [&] {
            ScopedSpan span("net.registry_open");
            return registry.open(archive.name);
        }();
        out["net.open_ms"] = (nowSeconds() - start) * 1e3;
        if (!meta.ok())
            return failures + 1;

        sage::SageReader layout(archive.path, sage::SageReaderOptions{true});
        std::vector<double> miss_s, hit_s, hit_allocs;
        const size_t chunks = std::min(layout.chunkCount(), kMaxProbeChunks);
        for (size_t c = 0; c < chunks; c++) {
            const uint64_t first = layout.chunkFirstRead(c);
            const uint64_t count =
                std::min<uint64_t>(1024, layout.chunkReadCount(c));
            for (int pass = 0; pass < 2; pass++) {
                const uint64_t allocs_before = processAllocations();
                start = nowSeconds();
                sage::MultiArchiveService::SyncOutcome outcome = [&] {
                    ScopedSpan span(pass == 0 ? "service.read_range_miss"
                                              : "service.read_range_hit");
                    return registry.readRangeSync(meta->id, first, count);
                }();
                const double seconds = nowSeconds() - start;
                const uint64_t allocs = processAllocations() - allocs_before;
                if (outcome.admission != sage::Admission::Admitted ||
                    !outcome.result.ok() ||
                    rangeDigest(outcome.result.reads, first) !=
                        expectedRangeDigest(archive, first, count)) {
                    failures++;
                    continue;
                }
                (pass == 0 ? miss_s : hit_s).push_back(seconds);
                if (pass == 1)
                    hit_allocs.push_back(static_cast<double>(allocs));
            }
        }
        out["service.miss_ms"] = median(miss_s) * 1e3;
        out["service.hit_ms"] = median(hit_s) * 1e3;
        out["service.allocs_per_hit"] = median(hit_allocs);
    }
    return failures;
}

} // namespace perfbench
