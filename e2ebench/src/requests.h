// The benchmark's own model of a request, the seeded generators of the
// three workloads' request sequences, and the JSON bodies sent on the
// wire.  Requests are described here independently of the program's
// EarthQubeQuery / QueryRequest types; the reference checks evaluate
// these descriptions directly.
#ifndef E2EBENCH_REQUESTS_H_
#define E2EBENCH_REQUESTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "reference.h"

namespace e2e {

enum class LabelOp { kNone, kSome, kExactly, kAll };
enum class GeoShape { kNone, kRect, kCircle, kPolygon };

/// A query-panel restriction (every set field must hold).
struct PanelSpec {
  LabelOp label_op = LabelOp::kNone;
  std::vector<int> labels;  ///< sorted label ids
  bool has_date = false;
  Ymd begin, end;
  GeoShape geo = GeoShape::kNone;
  double min_lat = 0, min_lon = 0, max_lat = 0, max_lon = 0;  ///< rect
  double c_lat = 0, c_lon = 0, radius_m = 0;                  ///< circle
  std::vector<std::pair<double, double>> polygon;             ///< (lat, lon)
  std::vector<std::string> satellites;
  std::vector<int> seasons;  ///< 0 winter, 1 spring, 2 summer, 3 autumn
  size_t limit = 0;          ///< 0 = unlimited
};

/// A similarity restriction: by archive name, or by an uploaded patch
/// (whose code is only known once the service has hashed it).
struct SimSpec {
  bool upload = false;
  size_t subject = 0;  ///< archive index of a by-name subject
  bool knn = false;
  uint32_t radius = 0;
  size_t k = 0;
  size_t limit = 0;  ///< radius mode cap (0 = none)
};

enum class OpKind { kPanel, kPatch, kSimilar, kWalkPage, kUpload, kIngest };

struct Op {
  OpKind kind = OpKind::kPanel;
  std::string family;  ///< reporting label, e.g. "radius", "hybrid_pre"
  std::optional<PanelSpec> panel;
  std::optional<SimSpec> sim;
  bool hits_projection = false;
  size_t page = 0;          ///< page within a cursor walk
  size_t upload_index = 0;  ///< kUpload: index into the upload patch pool
  size_t patch = 0;         ///< kPatch: archive index of the clicked patch
  /// kPanel/kSimilar/kWalkPage: the body without its closing brace, so a
  /// cursor or page can be appended.  kUpload: the body before the code.
  std::string body_prefix;
};

/// Closes a body prefix, adding nothing.
std::string CloseBody(const std::string& prefix);

/// The default page size of the v2 API (kPageSize), restated so the
/// checks do not read it from the program.
inline constexpr size_t kPageSize = 50;
/// Number of pages of each cursor walk.
inline constexpr size_t kWalkDepth = 4;
/// Requests between two routed ingest batches on `cluster_ingest`.
inline constexpr size_t kIngestEvery = 8;
/// Operations per request block of each workload (see requests.cc): every
/// block has the same make-up, so whole blocks are the unit the run's
/// windows are cut in.
inline constexpr size_t kExploreBlockOps = 25;
inline constexpr size_t kSimilarBlockOps = 24;
inline constexpr size_t kClusterBlockOps = 27;

struct GenContext {
  const RefArchive* ref = nullptr;
  size_t pool = 0;           ///< patches eligible as anchors/subjects
  size_t upload_pool = 0;    ///< synthesized patches available
};

/// `explore`: panel-only browsing plus patch clicks.
std::vector<Op> GenerateExplore(uint64_t seed, const GenContext& ctx,
                                size_t count);
/// `similar`: Zipf-skewed similarity traffic for one client.
std::vector<Op> GenerateSimilar(uint64_t seed, const GenContext& ctx,
                                size_t count);
/// `cluster_ingest`: panel + similarity traffic with an ingest batch
/// every kIngestEvery requests.
std::vector<Op> GenerateCluster(uint64_t seed, const GenContext& ctx,
                                size_t count);

/// Body builders (also used by the traced run).
std::string PanelJson(const PanelSpec& panel);
/// Similarity object for a by-name subject.
std::string SimJson(const SimSpec& sim, const std::string& name);
/// Similarity object for an uploaded subject's code bits.
std::string SimCodeJson(const SimSpec& sim, const std::string& bits);

}  // namespace e2e

#endif  // E2EBENCH_REQUESTS_H_
