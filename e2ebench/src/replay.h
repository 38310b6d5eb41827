// Closed-loop replay of a workload's request sequences over loopback
// HTTP, and the post-run verification of every spooled response.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bigearthnet/patch.h"
#include "checks.h"
#include "earthqube/cbir_service.h"
#include "reference.h"
#include "requests.h"
#include "stack.h"
#include "util.h"

namespace e2e {

/// Operations of one cluster round: whole request blocks whose ingest
/// operations route exactly the held-back patches.
inline constexpr size_t kClusterRoundOps =
    kClusterRoundBatches * (kIngestEvery + 1);
inline constexpr size_t kClusterRoundBlocks = kClusterRoundOps / kClusterBlockOps;
static_assert(kClusterRoundOps % kClusterBlockOps == 0,
              "a cluster round is a whole number of blocks");

/// What a client needs to turn an Op into a request.
struct Target {
  uint16_t port = 0;
  const RefArchive* ref = nullptr;
  /// Query-by-new-example: the service that hashes uploads, and the
  /// synthesized patches.  HashPatch runs the model's forward pass,
  /// whose layers cache activations, so uploads are hashed one at a time.
  const agoraeo::earthqube::CbirService* hasher = nullptr;
  std::mutex* hash_mu = nullptr;
  const std::vector<agoraeo::bigearthnet::Patch>* uploads = nullptr;
  /// cluster_ingest: the cluster whose coordinator ingests batches.  Its
  /// port replaces `port`, and each client starts a new cluster round
  /// (Cluster::NextRound) after every kClusterRoundOps operations.
  Cluster* cluster = nullptr;
  /// Spool files are written under this directory.
  std::string spool_dir;
};

struct FamilyStats {
  size_t count = 0;
  double total_ms = 0;
};

/// One operation as the client saw it: send and last-byte times, and the
/// process CPU read just before the send and just after the last byte.
struct OpTime {
  uint64_t t0, t1, cpu0, cpu1;
};

struct ReplayResult {
  double wall_s = 0;
  uint64_t cpu_ns = 0;
  size_t attempted = 0;
  size_t failed = 0;
  /// Per client, in issue order.
  std::vector<std::vector<OpTime>> timings;
  uint64_t start_ns = 0;
  /// Every 100 ms during the replay: the time and the host's CPU ticks.
  struct Sample {
    uint64_t t_ns;
    HostTicks host;
  };
  std::vector<Sample> samples;
  std::map<std::string, FamilyStats> families;
  std::vector<std::string> spools;  ///< one per client
  /// Peak RSS (MiB) when `rss_after_ops` operations had completed, or at
  /// the end of the replay when fewer did.
  double peak_rss_mb = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  /// cluster_ingest: (expected visible, sum of the nodes' num_images)
  /// after each batch.
  std::vector<std::pair<size_t, size_t>> ingest_counts;
};

/// Runs one closed-loop client per sequence for `seconds`; each client
/// cycles through its sequence in order.  With `max_ops` > 0 each client
/// stops after that many operations instead.  `rss_after_ops` > 0 reads
/// the process's peak RSS once that many operations have completed.
ReplayResult Replay(const Target& target,
                    const std::vector<std::vector<Op>>& sequences,
                    double seconds, size_t max_ops = 0,
                    size_t rss_after_ops = 0);

struct VerifyResult {
  size_t checked = 0;
  size_t mismatches = 0;
  std::vector<std::string> reasons;  ///< first few mismatch descriptions
  std::vector<SelfTestCase> samples; ///< verified responses for the self-test
  /// Distinct similarity requests replayed and the bytes of one answer
  /// each (the response cache's working set, for the input description).
  size_t distinct_similarity = 0;
  size_t distinct_similarity_bytes = 0;
};

/// Re-reads every spooled response and checks it against the reference;
/// complete cursor walks are also checked as a whole.
VerifyResult VerifySpools(const Target& target,
                          const std::vector<std::vector<Op>>& sequences,
                          const ReplayResult& replay);

}  // namespace e2e

#endif  // E2EBENCH_REPLAY_H_
