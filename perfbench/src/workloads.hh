/**
 * @file
 * The benchmark's four closed-loop workloads and the loopback serving
 * harness two of them (and the traced run's traffic probe) share.
 *
 *   prep-dna    open each archive dnaOnly + decodeAllPacked(TwoBit)
 *   restore     open with quality + decodeAll + toFastq
 *   serve-hot   random 1024-read READ_RANGEs, decoded corpus in cache
 *   serve-cold  same traffic, working set >= 4x the cache budget
 *
 * Every workload checks every output against digests of the
 * generated input; a mismatch counts as a failed operation.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus.hh"
#include "net/client.hh"
#include "net/multi_archive.hh"
#include "net/server.hh"
#include "probes.hh"
#include "util/thread_pool.hh"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;
    std::string traceDir;
    HostInfo host;
};

/** What one timed phase measured. */
struct PhaseResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;        ///< Failed, refused or mismatched.
    uint64_t payloadBytes = 0;  ///< Delivered and verified.
    std::vector<double> latencies;  ///< Seconds per completed op.
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double rssMb = 0.0;  ///< Median resident set during the phase.
};

/** One served request, kept so the traced run can replay it. */
struct RequestRecord
{
    size_t archive = 0;  ///< Index into the harness's archives.
    uint64_t first = 0;
    uint64_t count = 0;
    double seconds = 0.0;  ///< Client-observed latency.
};

/** Serving traffic: client connections and reads per READ_RANGE. */
constexpr unsigned kServeConnections = 2;
constexpr uint64_t kRangeReads = 1024;
/** Cache shards per archive partition. The budgets used here give a
 *  partition a few decoded chunks, so one shard keeps a chunk within a
 *  shard's share of the budget (larger chunks are never admitted). */
constexpr unsigned kCacheShards = 1;

/** Pool threads beside the client connections, within nproc. */
unsigned servePoolThreads(const HostInfo &host);

/** Loopback server configuration. */
struct ServeConfig
{
    uint64_t cacheBudgetBytes = 0;
    unsigned poolThreads = 1;
    uint64_t seed = 1;
};

/**
 * An in-process net::Server over a directory of archives, plus the
 * client connections that drive it. Request sequences derive from the
 * seed; every reply is checked against the archive's stored-order
 * digests.
 */
class ServeHarness
{
  public:
    ServeHarness(std::string dir, const std::vector<Archive> &archives,
                 ServeConfig config);
    ~ServeHarness();
    ServeHarness(const ServeHarness &) = delete;
    ServeHarness &operator=(const ServeHarness &) = delete;

    /** Start service + server, connect and OPEN every archive. */
    bool start(std::string &error);

    /** Read every chunk once (cache warm-up) or issue @p requests
     *  random ranges; false when a reply fails its check. */
    bool warmAllChunks();
    bool warmRandom(unsigned requests);

    /** Closed loop from every connection for @p seconds. Logs each
     *  completed request when @p log is set; samples the service's
     *  queue depth into @p max_queue_depth when set. */
    PhaseResult run(double seconds, std::vector<RequestRecord> *log,
                    uint64_t *max_queue_depth);

    /** A reply with one flipped byte must fail the range check. */
    bool selfCheck();

    sage::net::ServerNetStats netStats() const;
    const ServeConfig &config() const { return config_; }

    void stop();

  private:
    struct Connection;

    /** Read [first, first+count) of archive @p a over @p conn and check
     *  it; adds delivered payload to @p payload and sets the request's
     *  client-observed @p latency (seconds, check excluded). */
    bool request(Connection &conn, size_t a, uint64_t first,
                 uint64_t count, uint64_t &payload, double &latency);

    std::string dir_;
    const std::vector<Archive> &archives_;
    ServeConfig config_;
    std::unique_ptr<sage::ThreadPool> pool_;
    std::unique_ptr<sage::MultiArchiveService> service_;
    std::unique_ptr<sage::net::Server> server_;
    std::vector<std::unique_ptr<Connection>> connections_;
    std::vector<uint32_t> ids_;  ///< Server archive id per archive.
    uint64_t phase_ = 0;         ///< Distinct request stream per run().
};

/** Base of the four workloads. */
class Workload
{
  public:
    explicit Workload(const RunOptions &options);
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Generate inputs from the seed, write archives, open, warm up.
     *  Replaces what an earlier setup() built. */
    virtual bool setup(std::string &error) = 0;

    /** Release what setup() built (servers, readers, files). */
    virtual void teardown() = 0;

    /** Closed-loop operations for @p seconds. */
    virtual PhaseResult run(double seconds) = 0;

    /** The output check must reject one flipped byte. */
    virtual bool selfCheck() = 0;

    /** Serving workloads expose their harness (traffic for the traced
     *  run); local ones return null. */
    virtual ServeHarness *harness() { return nullptr; }

    /** Requests logged by the last run() of a serving workload. */
    const std::vector<RequestRecord> &requestLog() const { return log_; }
    uint64_t maxQueueDepth() const { return maxQueueDepth_; }

    const std::vector<Archive> &archives() const { return archives_; }
    const std::vector<ReadSetSpec> &specs() const { return specs_; }
    const RunOptions &options() const { return options_; }
    unsigned poolThreads() const { return poolThreads_; }

    /** Corpus FASTQ bytes / archive bytes. */
    double ratio() const;

    /** Directory the workload writes its archives into. */
    const std::string &dir() const { return dir_; }

  protected:
    /** Build every archive in specs_ into dir_. */
    bool buildArchives(bool store_order, std::string &error);
    void removeArchives();

    RunOptions options_;
    std::string dir_;
    std::vector<ReadSetSpec> specs_;
    std::vector<Archive> archives_;
    unsigned poolThreads_ = 1;
    std::vector<RequestRecord> log_;
    uint64_t maxQueueDepth_ = 0;
};

std::unique_ptr<Workload> makeWorkload(const RunOptions &options);

/** Workload names in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
