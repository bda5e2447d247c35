/**
 * @file
 * sage_perfbench: the data-preparation benchmark program.
 *
 *   sage_perfbench --workload <prep-dna|restore|serve-hot|serve-cold>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  [--work-dir <dir>] [--trace-dir <dir>]
 *
 * --trace 0 measures the end-to-end metrics: set-up is repeated three
 * times (median reported), then the workload runs closed-loop for the
 * given seconds. --trace 1 runs half the time untraced and half traced
 * (the difference is the tracing overhead), then measures the
 * per-layer metrics and writes the spans as Chrome trace-event JSON.
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics. Any output mismatch makes the exit code non-zero.
 * perfbench/METRICS.md defines every metric.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "layers.hh"
#include "probes.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Loopback traffic the traced run of a local workload captures. */
constexpr double kTrafficProbeSeconds = 1.0;

struct MetricValue
{
    double value = 0.0;
    const char *unit = "";
};

using Metrics = std::vector<std::pair<std::string, MetricValue>>;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <prep-dna|restore|serve-hot|"
                 "serve-cold> --seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--trace-dir <dir>]\n",
                 argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, RunOptions &options)
{
    options.workDir = ".bench_build/work";
    options.traceDir = ".bench_build/traces";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            options.workload = value;
        else if (key == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            options.trace = value == "1";
        else if (key == "--work-dir")
            options.workDir = value;
        else if (key == "--trace-dir")
            options.traceDir = value;
        else
            return false;
    }
    return argc % 2 == 1 && options.seconds > 0.0;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) {
        std::fprintf(stderr, "warning: non-finite metric reported as 0\n");
        value = 0.0;
    }
    char text[64];
    std::snprintf(text, sizeof(text), "%.10g", value);
    return text;
}

/** The result line: the last line of stdout. */
void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &metrics)
{
    std::string line = std::string("{\"correct\": ") +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        line += (i ? ", \"" : "\"") + metrics[i].first +
            "\": {\"value\": " + jsonNumber(metrics[i].second.value) +
            ", \"unit\": \"" + metrics[i].second.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** End-to-end metrics of one timed phase. */
Metrics
endToEnd(const PhaseResult &phase, double ratio, double setup_s)
{
    const double payload_mb = static_cast<double>(phase.payloadBytes) / 1e6;
    Metrics m;
    m.push_back({"throughput_mbps",
                 {phase.wallSeconds > 0.0 ? payload_mb / phase.wallSeconds
                                          : 0.0,
                  "MB/s"}});
    m.push_back({"p50_ms", {median(phase.latencies) * 1e3, "ms"}});
    m.push_back({"cpu_ms_per_mb",
                 {payload_mb > 0.0 ? phase.cpuSeconds * 1e3 / payload_mb
                                   : 0.0,
                  "ms/MB"}});
    m.push_back({"rss_mb", {phase.rssMb, "MB"}});
    m.push_back({"ratio", {ratio, "x"}});
    m.push_back({"setup_s", {setup_s, "s"}});
    return m;
}

double
failRatio(const PhaseResult &phase)
{
    return phase.attempted == 0
        ? 1.0
        : static_cast<double>(phase.failed) /
            static_cast<double>(phase.attempted);
}

void
printMetrics(const char *title, const Metrics &metrics,
             const PhaseResult *phase)
{
    std::printf("%s\n", title);
    for (const auto &[name, metric] : metrics) {
        std::printf("  %-30s %14.4f %s", name.c_str(), metric.value,
                    metric.unit);
        if (phase != nullptr && name == "p50_ms")
            std::printf("  (n=%zu)", phase->latencies.size());
        std::printf("\n");
    }
    if (phase != nullptr) {
        // Reported, not JSON metrics: see METRICS.md for why.
        std::printf("  %-30s %14.4f ms  (n=%zu)\n", "p90_ms",
                    quantile(phase->latencies, 0.9) * 1e3,
                    phase->latencies.size());
        std::printf("  %-30s %14.4f ratio  (%llu of %llu operations)\n",
                    "fail_ratio", failRatio(*phase),
                    static_cast<unsigned long long>(phase->failed),
                    static_cast<unsigned long long>(phase->attempted));
    }
}

/** Fresh, empty workload directory. */
bool
resetDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return std::filesystem::create_directories(dir, ec) && !ec;
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

int
runUntraced(Workload &workload)
{
    const RunOptions &options = workload.options();
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupRepeats; r++) {
        if (r > 0)
            workload.teardown();
        std::string error;
        const double start = nowSeconds();
        if (!workload.setup(error)) {
            std::fprintf(stderr, "setup failed: %s\n", error.c_str());
            workload.teardown();
            return 1;
        }
        setup_s.push_back(nowSeconds() - start);
    }
    const bool self_check = workload.selfCheck();
    releaseFreeMemory();

    const PhaseResult phase = workload.run(options.seconds);
    const Metrics metrics =
        endToEnd(phase, workload.ratio(), median(setup_s));
    workload.teardown();

    char title[160];
    std::snprintf(title, sizeof(title),
                  "%s seed %llu: %.1f s closed loop, set-up x%d "
                  "(%.3f / %.3f / %.3f s)",
                  options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed),
                  phase.wallSeconds, kSetupRepeats, setup_s[0], setup_s[1],
                  setup_s[2]);
    printMetrics(title, metrics, &phase);
    std::printf("  self-check (one flipped byte is caught): %s\n",
                self_check ? "pass" : "FAIL");
    const bool correct = self_check && phase.failed == 0 &&
        phase.attempted > 0;
    printResult(correct, phase.attempted, phase.failed, metrics);
    return correct ? 0 : 1;
}

int
runTraced(Workload &workload)
{
    const RunOptions &options = workload.options();
    std::string error;
    const double setup_start = nowSeconds();
    if (!workload.setup(error)) {
        std::fprintf(stderr, "setup failed: %s\n", error.c_str());
        workload.teardown();
        return 1;
    }
    const double setup_s = nowSeconds() - setup_start;
    const bool self_check = workload.selfCheck();
    releaseFreeMemory();

    const double half = options.seconds / 2.0;
    const PhaseResult untraced = workload.run(half);
    ServeHarness *serving = workload.harness();
    const uint64_t bytes_out_start =
        serving ? serving->netStats().bytesOut : 0;

    Tracer tracer;
    Tracer::setActive(&tracer);
    const PhaseResult traced = workload.run(half);
    uint64_t failed = untraced.failed + traced.failed;
    uint64_t attempted = untraced.attempted + traced.attempted;

    // Archives with their stored-order digests, for range checks.
    std::vector<Archive> archives = workload.archives();
    for (Archive &archive : archives) {
        if (archive.storedPrefix.empty() && !storeOrder(archive))
            failed++;
    }

    TrafficCapture traffic;
    traffic.archives = &archives;
    if (serving != nullptr) {
        traffic.config = serving->config();
        traffic.log = workload.requestLog();
        traffic.untracedLatencies = untraced.latencies;
        traffic.payloadBytes = traced.payloadBytes;
        traffic.bytesOut = serving->netStats().bytesOut - bytes_out_start;
        traffic.maxQueueDepth = workload.maxQueueDepth();
    } else {
        // Local workloads have no wire: capture a short loopback run
        // over the same archives with a cache a quarter of their size.
        uint64_t decoded = 0;
        for (const Archive &archive : archives)
            decoded += archive.decodedBytes;
        ServeConfig config;
        config.cacheBudgetBytes = decoded / 4;
        config.poolThreads = servePoolThreads(options.host);
        config.seed = options.seed;
        // Start-up, warm-up and the untraced half are not traced.
        Tracer::setActive(nullptr);
        ServeHarness probe(workload.dir(), archives, config);
        if (!probe.start(error) || !probe.warmRandom(16)) {
            std::fprintf(stderr, "traffic probe failed: %s\n",
                         error.c_str());
            failed++;
            Tracer::setActive(&tracer);
        } else {
            const PhaseResult plain =
                probe.run(kTrafficProbeSeconds / 2, nullptr, nullptr);
            Tracer::setActive(&tracer);
            const uint64_t out_start = probe.netStats().bytesOut;
            const PhaseResult captured =
                probe.run(kTrafficProbeSeconds / 2, &traffic.log,
                          &traffic.maxQueueDepth);
            traffic.config = config;
            traffic.untracedLatencies = plain.latencies;
            traffic.payloadBytes = captured.payloadBytes;
            traffic.bytesOut = probe.netStats().bytesOut - out_start;
            failed += plain.failed + captured.failed;
            attempted += plain.attempted + captured.attempted;
        }
    }

    MetricMap layer;
    failed += replayTraffic(traffic, layer);
    failed += probeLayers(workload, archives, layer);
    Tracer::setActive(nullptr);
    const double ratio = workload.ratio();
    workload.teardown();

    // ---- report ---------------------------------------------------------
    const Metrics plain_metrics = endToEnd(untraced, ratio, setup_s);
    const Metrics traced_metrics = endToEnd(traced, ratio, setup_s);
    std::printf("%s seed %llu: traced run (%.1f s untraced, then %.1f s "
                "traced)\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), half, half);
    printMetrics("end-to-end, untraced half:", plain_metrics, &untraced);
    printMetrics("end-to-end, traced half:", traced_metrics, &traced);
    const double tput_plain = plain_metrics[0].second.value;
    const double tput_traced = traced_metrics[0].second.value;
    const double p50_plain = plain_metrics[1].second.value;
    const double p50_traced = traced_metrics[1].second.value;
    const double tput_overhead = tput_plain > 0.0
        ? (tput_plain - tput_traced) / tput_plain * 100.0
        : 0.0;
    const double p50_overhead = p50_plain > 0.0
        ? (p50_traced - p50_plain) / p50_plain * 100.0
        : 0.0;
    std::printf("tracing overhead (%s): throughput %+.2f%%, p50 %+.2f%%\n",
                options.workload.c_str(), -tput_overhead, p50_overhead);

    const std::vector<SpanSummary> summary = tracer.summarize();
    double self_total = 0.0;
    std::map<std::string, double> by_layer;
    for (const SpanSummary &row : summary) {
        self_total += row.selfMs;
        by_layer[row.name.substr(0, row.name.find('.'))] += row.selfMs;
    }
    std::printf("span self time (traced half, traffic capture and "
                "probes):\n  %-32s %8s %12s %12s %7s\n",
                "span", "count", "total_ms", "self_ms", "self%");
    for (const SpanSummary &row : summary) {
        std::printf("  %-32s %8llu %12.3f %12.3f %6.1f%%\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.count), row.totalMs,
                    row.selfMs,
                    self_total > 0.0 ? row.selfMs / self_total * 100.0 : 0.0);
    }
    std::printf("self time by layer:\n");
    for (const auto &[name, ms] : by_layer) {
        std::printf("  %-32s %12.3f ms %6.1f%%\n", name.c_str(), ms,
                    self_total > 0.0 ? ms / self_total * 100.0 : 0.0);
    }

    Metrics metrics;
    std::printf("per-layer metrics:\n");
    for (const LayerMetricDef &def : layerMetricDefs()) {
        const auto found = layer.find(def.name);
        if (found == layer.end()) {
            std::fprintf(stderr, "per-layer metric %s was not measured\n",
                         def.name);
            failed++;
            continue;
        }
        metrics.push_back({def.name, {found->second, def.unit}});
        std::printf("  %-32s %14.4f %s\n", def.name, found->second,
                    def.unit);
    }
    std::printf("  self-check (one flipped byte is caught): %s\n",
                self_check ? "pass" : "FAIL");

    // Chrome trace-event JSON with the run's context in otherData.
    std::string other = "{\"workload\": \"" + options.workload +
        "\", \"seed\": " + std::to_string(options.seed) +
        ", \"host\": " + hostJson(options.host) +
        ", \"tracing_overhead_pct\": {\"throughput\": " +
        jsonNumber(tput_overhead) + ", \"p50\": " + jsonNumber(p50_overhead) +
        "}, \"per_layer\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        other += (i ? ", \"" : "\"") + metrics[i].first +
            "\": " + jsonNumber(metrics[i].second.value);
    }
    other += "}}";
    const std::string trace_path = options.traceDir + "/trace-" +
        options.workload + "-seed" + std::to_string(options.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(options.traceDir, ec);
    if (tracer.writeChromeJson(trace_path, other))
        std::printf("trace written to %s (open in Perfetto)\n",
                    trace_path.c_str());
    else
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());

    const bool correct = self_check && failed == 0 && attempted > 0;
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    if (!parseArgs(argc, argv, options))
        return usage(argv[0]);
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end())
        return usage(argv[0]);

    options.host = probeHost();
    std::printf("host %s\n", hostJson(options.host).c_str());
    std::unique_ptr<Workload> workload = makeWorkload(options);
    if (!resetDir(workload->dir())) {
        std::fprintf(stderr, "cannot create %s\n", workload->dir().c_str());
        return 1;
    }
    const int code =
        options.trace ? runTraced(*workload) : runUntraced(*workload);
    removeDir(workload->dir());
    return code;
}
