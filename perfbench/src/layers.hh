/**
 * @file
 * Per-layer metrics of the traced run, measured from outside by
 * timing and counting calls into each libsage layer's public
 * functions (perfbench/METRICS.md names the end-to-end metric and
 * workload each should move).
 *
 * Two sources feed them:
 *   - the layer probes, which call one layer at a time on the
 *     workload's own archives and generated reads;
 *   - the traffic replay, which re-issues logged READ_RANGE requests
 *     in the benchmark thread through the service, wire encode, frame
 *     check and parse, so their shares of the client latency show.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

using MetricMap = std::map<std::string, double>;

/** A per-layer metric as listed in BENCHMARK.json. */
struct LayerMetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in BENCHMARK.json order. */
const std::vector<LayerMetricDef> &layerMetricDefs();

/** Serve traffic captured for the replay. */
struct TrafficCapture
{
    const std::vector<Archive> *archives = nullptr;  ///< storedPrefix set.
    ServeConfig config;
    std::vector<RequestRecord> log;
    std::vector<double> untracedLatencies;  ///< Seconds, for net.p99_ms.
    uint64_t payloadBytes = 0;  ///< Delivered during the captured phase.
    uint64_t bytesOut = 0;      ///< ServerNetStats::bytesOut delta.
    uint64_t maxQueueDepth = 0;
};

/** Replay @p traffic; adds service.*, net.* and io.read_amplification
 *  metrics. Returns the number of replayed replies that failed their
 *  check. */
uint64_t replayTraffic(const TrafficCapture &traffic, MetricMap &out);

/** Run the layer probes on @p workload's first archive and inputs;
 *  @p archives carry storedPrefix. Returns failed checks. */
uint64_t probeLayers(const Workload &workload,
                     const std::vector<Archive> &archives,
                     MetricMap &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
