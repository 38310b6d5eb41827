// The traced run's layer probes: each module's public calls timed from
// outside on cold caches, plus the stats deltas the replay leaves on the
// service's own counters.
#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "replay.h"
#include "requests.h"
#include "stack.h"

namespace e2e {

/// name -> (value, unit)
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// Counter snapshot of one or more EarthQube services, read over HTTP
/// from GET /api/v2/cache/stats and GET /api/v2/metrics.
struct ServiceCounters {
  double cache_hits = 0, cache_misses = 0;
  double resume_hits = 0, resume_misses = 0;
  double queue_wait_ns = 0, queue_wait_count = 0;
  double batch_wait_ns = 0, batch_wait_count = 0;
  double submitted = 0, coalesced = 0, flights = 0, batched_flights = 0;
};

/// Sums the counters of every service listening on `ports`.
ServiceCounters ReadCounters(const std::vector<uint16_t>& ports);

/// Adds `after - before` to `sum`, field by field.
void AddDelta(const ServiceCounters& before, const ServiceCounters& after,
              ServiceCounters* sum);

/// Adds the replay-derived per-layer metrics (cache, ranked access,
/// engine) from two counter snapshots.
void AddCounterMetrics(const ServiceCounters& before,
                       const ServiceCounters& after, MetricMap* out);

/// Layer probes against a monolith: `own` are the workload's requests;
/// `supplement` serve the layers `own` never reaches.  Also checks the
/// two bounds; a violated bound is reported in `violations`.
void ProbeMonolith(Monolith& m, const Target& target,
                   const std::vector<Op>& own,
                   const std::vector<Op>& supplement, MetricMap* out,
                   std::vector<std::string>* violations);

/// Layer probes against the cluster: coordinator queries on a cold
/// result cache, and each node's Execute on the request as forwarded.
void ProbeCluster(Cluster& c, const RefArchive& ref, const std::vector<Op>& ops,
                  MetricMap* out);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
