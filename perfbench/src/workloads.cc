/**
 * @file
 * The four workloads and the loopback serving harness (see
 * workloads.hh).
 */

#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "genomics/fastq.hh"
#include "io/session.hh"
#include "trace.hh"

namespace perfbench {

namespace {

/** splitmix64 step: request streams derive from the seed. */
uint64_t
nextRandom(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    return mix(state);
}

/** Closed loop shared by the local workloads: run @p op until
 *  @p seconds elapse. @p op returns false on a failed or mismatched
 *  operation and adds its latency and payload when it succeeds. */
template <typename Op>
PhaseResult
closedLoop(double seconds, const Op &op)
{
    PhaseResult result;
    ResidentSampler rss;
    const double cpu_start = processCpuSeconds();
    const double start = nowSeconds();
    const double deadline = start + seconds;
    while (nowSeconds() < deadline) {
        OpScope scope;
        double latency = 0.0;
        uint64_t payload = 0;
        result.attempted++;
        if (op(latency, payload)) {
            result.latencies.push_back(latency);
            result.payloadBytes += payload;
        } else {
            result.failed++;
        }
    }
    result.wallSeconds = nowSeconds() - start;
    result.cpuSeconds = processCpuSeconds() - cpu_start;
    result.rssMb = rss.stop();
    return result;
}

} // namespace

// ---- ServeHarness -----------------------------------------------------

struct ServeHarness::Connection
{
    std::unique_ptr<sage::net::Client> client;
};

ServeHarness::ServeHarness(std::string dir,
                           const std::vector<Archive> &archives,
                           ServeConfig config)
    : dir_(std::move(dir)), archives_(archives), config_(config)
{}

ServeHarness::~ServeHarness()
{
    stop();
}

bool
ServeHarness::start(std::string &error)
{
    pool_ = std::make_unique<sage::ThreadPool>(config_.poolThreads);
    sage::MultiArchiveOptions options;
    options.globalCacheBudgetBytes = config_.cacheBudgetBytes;
    options.maxOpenArchives = static_cast<unsigned>(archives_.size());
    options.cacheShards = kCacheShards;
    options.pool = pool_.get();
    service_ = std::make_unique<sage::MultiArchiveService>(dir_, options);
    server_ = std::make_unique<sage::net::Server>(*service_);
    const sage::Status started = server_->start();
    if (!started.ok()) {
        error = "server start: " + started.toString();
        return false;
    }
    for (unsigned c = 0; c < kServeConnections; c++) {
        auto client =
            sage::net::Client::connect("127.0.0.1", server_->port());
        if (!client.ok()) {
            error = "connect: " + client.status().toString();
            return false;
        }
        auto conn = std::make_unique<Connection>();
        conn->client = std::move(client.value());
        for (size_t a = 0; a < archives_.size(); a++) {
            auto opened = conn->client->open(archives_[a].name);
            if (!opened.ok()) {
                error = "open " + archives_[a].name + ": " +
                    opened.status().toString();
                return false;
            }
            if (c == 0)
                ids_.push_back(opened->archive);
        }
        connections_.push_back(std::move(conn));
    }
    return true;
}

void
ServeHarness::stop()
{
    connections_.clear();
    if (server_)
        server_->stop();
    server_.reset();
    service_.reset();
    pool_.reset();
}

bool
ServeHarness::request(Connection &conn, size_t a, uint64_t first,
                      uint64_t count, uint64_t &payload, double &latency)
{
    const double start = nowSeconds();
    auto reply = [&] {
        ScopedSpan span("net.client_read_range");
        return conn.client->readRange(ids_[a], first, count);
    }();
    latency = nowSeconds() - start;
    if (!reply.ok() || !reply->ok())
        return false;
    ScopedSpan span("bench.verify_reply");
    if (reply->reads.size() != count ||
        rangeDigest(reply->reads, first) !=
            expectedRangeDigest(archives_[a], first, count))
        return false;
    for (const sage::Read &read : reply->reads)
        payload += payloadBytes(read);
    return true;
}

bool
ServeHarness::warmAllChunks()
{
    Connection &conn = *connections_.front();
    for (size_t a = 0; a < archives_.size(); a++) {
        const uint64_t reads = archives_[a].reads;
        for (uint64_t first = 0; first < reads;
             first += kRangeReads) {
            uint64_t payload = 0;
            double latency = 0.0;
            const uint64_t count =
                std::min(kRangeReads, reads - first);
            if (!request(conn, a, first, count, payload, latency))
                return false;
        }
    }
    return true;
}

bool
ServeHarness::warmRandom(unsigned requests)
{
    uint64_t state = mix(config_.seed ^ 0x77a2bull);
    for (unsigned i = 0; i < requests; i++) {
        const size_t a = nextRandom(state) % archives_.size();
        const uint64_t count =
            std::min(kRangeReads, archives_[a].reads);
        const uint64_t first =
            nextRandom(state) % (archives_[a].reads - count + 1);
        uint64_t payload = 0;
        double latency = 0.0;
        if (!request(*connections_.front(), a, first, count, payload,
                     latency))
            return false;
    }
    return true;
}

PhaseResult
ServeHarness::run(double seconds, std::vector<RequestRecord> *log,
                  uint64_t *max_queue_depth)
{
    const unsigned conns = static_cast<unsigned>(connections_.size());
    const uint64_t phase = phase_++;
    std::vector<PhaseResult> parts(conns);
    std::vector<std::vector<RequestRecord>> logs(conns);
    std::atomic<bool> done{false};
    std::atomic<uint64_t> queue_max{0};

    ResidentSampler rss;
    const double cpu_start = processCpuSeconds();
    const double start = nowSeconds();
    const double deadline = start + seconds;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; c++) {
        threads.emplace_back([&, c] {
            uint64_t state = mix(config_.seed * 0x2545f4914f6cdd1dull +
                                 phase * 131 + c + 1);
            PhaseResult &part = parts[c];
            while (nowSeconds() < deadline) {
                OpScope scope;
                const size_t a = nextRandom(state) % archives_.size();
                const uint64_t count =
                    std::min(kRangeReads, archives_[a].reads);
                const uint64_t first =
                    nextRandom(state) % (archives_[a].reads - count + 1);
                uint64_t payload = 0;
                double latency = 0.0;
                part.attempted++;
                if (!request(*connections_[c], a, first, count, payload,
                             latency)) {
                    part.failed++;
                    continue;
                }
                part.latencies.push_back(latency);
                part.payloadBytes += payload;
                if (log != nullptr)
                    logs[c].push_back({a, first, count, latency});
            }
        });
    }
    std::thread sampler;
    if (max_queue_depth != nullptr) {
        sampler = std::thread([&] {
            while (!done.load(std::memory_order_relaxed)) {
                const uint64_t depth = service_->queueDepth();
                if (depth > queue_max.load(std::memory_order_relaxed))
                    queue_max.store(depth, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    done.store(true);
    if (sampler.joinable())
        sampler.join();

    PhaseResult result;
    result.wallSeconds = nowSeconds() - start;
    result.cpuSeconds = processCpuSeconds() - cpu_start;
    result.rssMb = rss.stop();
    for (unsigned c = 0; c < conns; c++) {
        result.attempted += parts[c].attempted;
        result.failed += parts[c].failed;
        result.payloadBytes += parts[c].payloadBytes;
        result.latencies.insert(result.latencies.end(),
                                parts[c].latencies.begin(),
                                parts[c].latencies.end());
        if (log != nullptr)
            log->insert(log->end(), logs[c].begin(), logs[c].end());
    }
    if (max_queue_depth != nullptr)
        *max_queue_depth = queue_max.load();
    return result;
}

bool
ServeHarness::selfCheck()
{
    const Archive &archive = archives_.front();
    const uint64_t count = std::min(kRangeReads, archive.reads);
    auto reply = connections_.front()->client->readRange(ids_.front(), 0,
                                                         count);
    if (!reply.ok() || !reply->ok() || reply->reads.size() != count)
        return false;
    std::vector<sage::Read> &reads = reply->reads;
    const uint64_t expected = expectedRangeDigest(archive, 0, count);
    if (rangeDigest(reads, 0) != expected)
        return false;
    sage::Read &victim = reads[count / 2];
    std::string &field = victim.quals.empty() ? victim.bases : victim.quals;
    field[field.size() / 2] ^= 0x01;
    return rangeDigest(reads, 0) != expected;
}

sage::net::ServerNetStats
ServeHarness::netStats() const
{
    return server_->netStats();
}

// ---- Workload base ----------------------------------------------------

unsigned
servePoolThreads(const HostInfo &host)
{
    return host.nproc > kServeConnections ? host.nproc - kServeConnections
                                          : 1;
}

Workload::Workload(const RunOptions &options)
    : options_(options), dir_(options.workDir + "/" + options.workload)
{}

double
Workload::ratio() const
{
    uint64_t fastq = 0, archive = 0;
    for (const Archive &a : archives_) {
        fastq += a.fastqBytes;
        archive += a.archiveBytes;
    }
    return archive == 0 ? 0.0
                        : static_cast<double>(fastq) /
            static_cast<double>(archive);
}

bool
Workload::buildArchives(bool store_order, std::string &error)
{
    archives_.clear();
    for (size_t i = 0; i < specs_.size(); i++) {
        const std::string name = (specs_[i].longRead ? "long-" : "short-") +
            std::to_string(i) + ".sage";
        archives_.push_back(buildArchive(dir_, name, specs_[i],
                                         options_.seed,
                                         static_cast<unsigned>(i)));
        if (store_order && !storeOrder(archives_.back())) {
            error = name + ": decoded reads are not the input's";
            return false;
        }
    }
    return true;
}

void
Workload::removeArchives()
{
    for (const Archive &archive : archives_)
        std::remove(archive.path.c_str());
    archives_.clear();
}

namespace {

// ---- prep-dna ---------------------------------------------------------

class PrepDnaWorkload final : public Workload
{
  public:
    explicit PrepDnaWorkload(const RunOptions &options) : Workload(options)
    {
        // RS2-like short reads and RS4-like long reads; both archives
        // have more chunks than pool threads.
        specs_.push_back({false, 1u << 18, 8.0, 2048, false});
        specs_.push_back({true, 1u << 17, 6.0, 8, false});
        poolThreads_ = options.host.nproc;
    }

    bool
    setup(std::string &error) override
    {
        pool_ = std::make_unique<sage::ThreadPool>(poolThreads_);
        if (!buildArchives(false, error))
            return false;
        double latency = 0.0;
        uint64_t payload = 0;
        if (!pass(latency, payload)) {
            error = "warm-up pass: packed bases differ from the input";
            return false;
        }
        return true;
    }

    void
    teardown() override
    {
        pool_.reset();
        removeArchives();
    }

    PhaseResult
    run(double seconds) override
    {
        return closedLoop(seconds, [this](double &latency,
                                          uint64_t &payload) {
            return pass(latency, payload);
        });
    }

    bool
    selfCheck() override
    {
        const Archive &archive = archives_.front();
        sage::SageReaderOptions reader_options;
        reader_options.dnaOnly = true;
        sage::SageReader reader(archive.path, reader_options);
        auto packed =
            reader.decodeAllPacked(sage::OutputFormat::TwoBit, pool_.get());
        if (packedMultiset(packed) != archive.packedMultiset)
            return false;
        packed[packed.size() / 2][0] ^= 0x01;
        return packedMultiset(packed) != archive.packedMultiset;
    }

  private:
    static uint64_t
    packedMultiset(const std::vector<std::vector<uint8_t>> &packed)
    {
        uint64_t sum = 0;
        for (const std::vector<uint8_t> &read : packed)
            sum += mix(digest(read.data(), read.size()));
        return sum;
    }

    /** One pass: open every archive dnaOnly and pack all its reads. */
    bool
    pass(double &latency, uint64_t &payload)
    {
        bool ok = true;
        for (const Archive &archive : archives_) {
            const double start = nowSeconds();
            std::vector<std::vector<uint8_t>> packed;
            {
                std::unique_ptr<sage::SageReader> reader;
                {
                    ScopedSpan span("core.open_dna");
                    sage::SageReaderOptions reader_options;
                    reader_options.dnaOnly = true;
                    reader = std::make_unique<sage::SageReader>(
                        archive.path, reader_options);
                }
                ScopedSpan span("core.decode_all_packed");
                packed = reader->decodeAllPacked(sage::OutputFormat::TwoBit,
                                                 pool_.get());
            }
            latency += nowSeconds() - start;
            ScopedSpan span("bench.verify_packed");
            if (packed.size() != archive.reads ||
                packedMultiset(packed) != archive.packedMultiset) {
                ok = false;
                continue;
            }
            payload += archive.baseBytes;
        }
        return ok;
    }

    std::unique_ptr<sage::ThreadPool> pool_;
};

// ---- restore ----------------------------------------------------------

class RestoreWorkload final : public Workload
{
  public:
    explicit RestoreWorkload(const RunOptions &options) : Workload(options)
    {
        specs_.push_back({false, 1u << 18, 8.0, 2048, true});
        poolThreads_ = options.host.nproc;
    }

    bool
    setup(std::string &error) override
    {
        pool_ = std::make_unique<sage::ThreadPool>(poolThreads_);
        if (!buildArchives(false, error))
            return false;
        double latency = 0.0;
        uint64_t payload = 0;
        if (!pass(latency, payload)) {
            error = "warm-up pass: restored FASTQ differs from the input";
            return false;
        }
        return true;
    }

    void
    teardown() override
    {
        pool_.reset();
        removeArchives();
    }

    PhaseResult
    run(double seconds) override
    {
        return closedLoop(seconds, [this](double &latency,
                                          uint64_t &payload) {
            return pass(latency, payload);
        });
    }

    bool
    selfCheck() override
    {
        const Archive &archive = archives_.front();
        sage::SageReader reader(archive.path);
        std::string text = sage::toFastq(reader.decodeAll(pool_.get()));
        if (!matches(archive, text))
            return false;
        text[text.size() / 2] ^= 0x01;
        return !matches(archive, text);
    }

  private:
    static bool
    matches(const Archive &archive, const std::string &text)
    {
        return text.size() == archive.fastqBytes &&
            digest(text.data(), text.size()) == archive.fastqDigest;
    }

    /** One pass: archive -> reads with quality -> FASTQ text. */
    bool
    pass(double &latency, uint64_t &payload)
    {
        const Archive &archive = archives_.front();
        const double start = nowSeconds();
        std::string text;
        {
            std::unique_ptr<sage::SageReader> reader;
            {
                ScopedSpan span("core.open");
                reader = std::make_unique<sage::SageReader>(archive.path);
            }
            sage::ReadSet reads;
            {
                ScopedSpan span("core.decode_all");
                reads = reader->decodeAll(pool_.get());
            }
            ScopedSpan span("genomics.to_fastq");
            text = sage::toFastq(reads);
        }
        latency = nowSeconds() - start;
        ScopedSpan span("bench.verify_fastq");
        if (!matches(archive, text))
            return false;
        payload = archive.payloadBytes;
        return true;
    }

    std::unique_ptr<sage::ThreadPool> pool_;
};

// ---- serve-hot / serve-cold -------------------------------------------

class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(const RunOptions &options, bool hot)
        : Workload(options), hot_(hot)
    {
        for (unsigned i = 0; i < kArchives; i++)
            specs_.push_back({false, 1u << 17, 12.0, 1024, false});
        poolThreads_ = servePoolThreads(options.host);
    }

    bool
    setup(std::string &error) override
    {
        if (!buildArchives(true, error))
            return false;
        uint64_t decoded = 0;
        for (const Archive &archive : archives_)
            decoded += archive.decodedBytes;
        ServeConfig config;
        // Hot: the decoded corpus fits every partition with room to
        // spare. Cold: the working set is 4x the budget.
        config.cacheBudgetBytes = hot_ ? 4 * decoded : decoded / 4;
        config.poolThreads = poolThreads_;
        config.seed = options_.seed;
        harness_ = std::make_unique<ServeHarness>(dir_, archives_, config);
        if (!harness_->start(error))
            return false;
        const bool warmed =
            hot_ ? harness_->warmAllChunks() : harness_->warmRandom(64);
        if (!warmed) {
            error = "warm-up: a reply differs from the input";
            return false;
        }
        return true;
    }

    void
    teardown() override
    {
        harness_.reset();
        removeArchives();
    }

    PhaseResult
    run(double seconds) override
    {
        const bool traced = Tracer::active() != nullptr;
        log_.clear();
        return harness_->run(seconds, traced ? &log_ : nullptr,
                             traced ? &maxQueueDepth_ : nullptr);
    }

    bool selfCheck() override { return harness_->selfCheck(); }

    ServeHarness *harness() override { return harness_.get(); }

  private:
    static constexpr unsigned kArchives = 4;

    bool hot_;
    std::unique_ptr<ServeHarness> harness_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "prep-dna", "restore", "serve-hot", "serve-cold"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const RunOptions &options)
{
    if (options.workload == "prep-dna")
        return std::make_unique<PrepDnaWorkload>(options);
    if (options.workload == "restore")
        return std::make_unique<RestoreWorkload>(options);
    if (options.workload == "serve-hot")
        return std::make_unique<ServeWorkload>(options, true);
    if (options.workload == "serve-cold")
        return std::make_unique<ServeWorkload>(options, false);
    return nullptr;
}

} // namespace perfbench
