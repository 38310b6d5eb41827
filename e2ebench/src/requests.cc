#include "requests.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bigearthnet/clc_labels.h"
#include "minijson.h"
#include "util.h"

namespace e2e {
namespace {

constexpr size_t kPanelLimit = 1000;  ///< the map's render cap

/// Rounds a coordinate to the 6 decimals sent on the wire, so the check
/// evaluates exactly the double the server parses.
double Wire(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", x);
  return std::strtod(buf, nullptr);
}

std::string Num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", x);
  return buf;
}

Ymd AddDays(Ymd d, int days) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  const auto month_len = [](int y, int m) {
    const bool leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
    return kDays[m - 1] + (m == 2 && leap ? 1 : 0);
  };
  while (days > 0) {
    if (++d.d > month_len(d.y, d.m)) {
      d.d = 1;
      if (++d.m > 12) {
        d.m = 1;
        ++d.y;
      }
    }
    --days;
  }
  while (days < 0) {
    if (--d.d < 1) {
      if (--d.m < 1) {
        d.m = 12;
        --d.y;
      }
      d.d = month_len(d.y, d.m);
    }
    ++days;
  }
  return d;
}

/// 1-2 labels of the anchor (plus, sometimes, one random label).
std::vector<int> SomeLabels(Rand& rng, const RefPatch& anchor, bool extra) {
  std::vector<int> out;
  out.push_back(anchor.labels[rng.Below(anchor.labels.size())]);
  if (anchor.labels.size() > 1 && rng.Chance(0.5)) {
    out.push_back(anchor.labels[rng.Below(anchor.labels.size())]);
  }
  if (extra) {
    out.push_back(static_cast<int>(
        rng.Below(agoraeo::bigearthnet::kNumLabels)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void AddLabels(Rand& rng, const RefPatch& anchor, PanelSpec* q) {
  switch (rng.Below(3)) {
    case 0:
      q->label_op = LabelOp::kSome;
      q->labels = SomeLabels(rng, anchor, rng.Chance(0.3));
      break;
    case 1:
      q->label_op = LabelOp::kExactly;
      q->labels = anchor.labels;
      break;
    default:
      q->label_op = LabelOp::kAll;
      q->labels = SomeLabels(rng, anchor, false);
      break;
  }
}

void AddDate(Rand& rng, const RefPatch& anchor, PanelSpec* q) {
  q->has_date = true;
  q->begin = AddDays(anchor.date, -static_cast<int>(1 + rng.Below(10)));
  q->end = AddDays(anchor.date, static_cast<int>(1 + rng.Below(10)));
}

void AddGeo(Rand& rng, const RefPatch& anchor, int shape, PanelSpec* q) {
  const double lat = anchor.c_lat(), lon = anchor.c_lon();
  switch (shape) {
    case 0: {
      q->geo = GeoShape::kRect;
      const double h = rng.Uniform(0.02, 0.15);
      q->min_lat = Wire(lat - h);
      q->max_lat = Wire(lat + h);
      q->min_lon = Wire(lon - 1.5 * h);
      q->max_lon = Wire(lon + 1.5 * h);
      break;
    }
    case 1:
      q->geo = GeoShape::kCircle;
      q->c_lat = Wire(lat);
      q->c_lon = Wire(lon);
      q->radius_m = Wire(rng.Uniform(2000.0, 15000.0));
      break;
    default: {
      // A star-shaped pentagon around the anchor: it contains the
      // anchor's center, so the clicked anchor is a result.
      q->geo = GeoShape::kPolygon;
      for (int v = 0; v < 5; ++v) {
        const double angle = (v + rng.Uniform(0.1, 0.9)) * 2.0 * M_PI / 5.0;
        const double r = rng.Uniform(0.03, 0.12);
        q->polygon.emplace_back(Wire(lat + r * std::sin(angle)),
                                Wire(lon + 1.5 * r * std::cos(angle)));
      }
      break;
    }
  }
}

/// A broad filter (post-filter side of the planner threshold).
PanelSpec BroadFilter(Rand& rng, const RefPatch& anchor) {
  PanelSpec q;
  switch (rng.Below(3)) {
    case 0:
      q.seasons = {anchor.season, (anchor.season + 1) % 4};
      break;
    case 1:
      q.satellites = {anchor.satellite};
      break;
    default:
      q.label_op = LabelOp::kSome;
      q.labels = {anchor.labels[rng.Below(anchor.labels.size())]};
      break;
  }
  return q;
}

/// A selective filter (pre-filter side of the planner threshold).
PanelSpec SelectiveFilter(Rand& rng, const RefPatch& anchor) {
  PanelSpec q;
  if (rng.Chance(0.5)) {
    q.label_op = LabelOp::kExactly;
    q.labels = anchor.labels;
    q.seasons = {anchor.season};
  } else {
    AddGeo(rng, anchor, 0, &q);
  }
  return q;
}

/// Panel families of the explore mix, with their count per block.
enum class PanelFamily { kLabels, kDate, kGeo, kSeasonSatellite, kCombined };

PanelSpec ExplorePanel(Rand& rng, const RefPatch& anchor, PanelFamily family,
                       std::string* name) {
  PanelSpec q;
  q.limit = kPanelLimit;
  switch (family) {
    case PanelFamily::kLabels:
      *name = "panel_labels";
      AddLabels(rng, anchor, &q);
      break;
    case PanelFamily::kDate:
      *name = "panel_date";
      AddDate(rng, anchor, &q);
      break;
    case PanelFamily::kGeo:
      *name = "panel_geo";
      AddGeo(rng, anchor, static_cast<int>(rng.Below(3)), &q);
      break;
    case PanelFamily::kSeasonSatellite:
      *name = "panel_season_satellite";
      q.seasons = {anchor.season};
      q.satellites = {anchor.satellite};
      break;
    case PanelFamily::kCombined:
      *name = "panel_combined";
      AddLabels(rng, anchor, &q);
      if (rng.Chance(0.5)) AddDate(rng, anchor, &q);
      AddGeo(rng, anchor, static_cast<int>(rng.Below(3)), &q);
      if (rng.Chance(0.3)) q.seasons = {anchor.season};
      break;
  }
  return q;
}

/// `counts[i]` copies of family i, shuffled.  Every block of a sequence
/// has the same make-up, so the mix of any run is the same whatever the
/// seed and however far the run gets.
template <typename Family>
std::vector<Family> Block(Rand& rng,
                          const std::vector<std::pair<Family, int>>& counts) {
  std::vector<Family> out;
  for (const auto& [family, n] : counts) out.insert(out.end(), n, family);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  return out;
}

std::string Body(const PanelSpec* panel, const std::string& sim,
                 bool hits) {
  std::string out = "{";
  if (panel != nullptr) out += "\"panel\":" + PanelJson(*panel);
  if (!sim.empty()) {
    if (panel != nullptr) out += ",";
    out += "\"similarity\":" + sim;
  }
  if (hits) out += ",\"projection\":\"hits\"";
  return out;  // left open: the caller may append a cursor or page
}

Op PanelOp(Rand& rng, const RefArchive& ref, size_t anchor,
           PanelFamily family) {
  Op op;
  op.kind = OpKind::kPanel;
  op.panel = ExplorePanel(rng, ref.patches[anchor], family, &op.family);
  op.body_prefix = Body(&*op.panel, "", false);
  return op;
}

Op SimilarOp(const RefArchive& ref, std::string family, SimSpec sim,
             std::optional<PanelSpec> panel, bool hits) {
  Op op;
  op.kind = OpKind::kSimilar;
  op.family = std::move(family);
  op.panel = std::move(panel);
  op.sim = sim;
  op.hits_projection = hits;
  op.body_prefix = Body(op.panel ? &*op.panel : nullptr,
                        SimJson(sim, ref.patches[sim.subject].name), hits);
  return op;
}

void AppendWalk(const RefArchive& ref, size_t subject, uint32_t radius,
                std::vector<Op>* ops) {
  SimSpec sim;
  sim.subject = subject;
  sim.radius = radius;
  for (size_t page = 0; page < kWalkDepth; ++page) {
    Op op = SimilarOp(ref, "cursor_walk", sim, std::nullopt, false);
    op.kind = OpKind::kWalkPage;
    op.page = page;
    ops->push_back(std::move(op));
  }
}

SimSpec Radius(size_t subject, uint32_t radius, size_t limit = 0) {
  SimSpec s;
  s.subject = subject;
  s.radius = radius;
  s.limit = limit;
  return s;
}

SimSpec Knn(size_t subject, size_t k) {
  SimSpec s;
  s.subject = subject;
  s.knn = true;
  s.k = k;
  return s;
}

/// The subjects in popularity order, for the Zipf draws.  Popularity is a
/// property of the archive, not of the run: every seed draws from the same
/// head, so runs differ in their draws and not in which images are hot.
std::vector<size_t> PopularityOrder(size_t n) {
  Rand rng(0x9e3779b97f4a7c15ULL);
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

}  // namespace

std::string CloseBody(const std::string& prefix) { return prefix + "}"; }

std::string PanelJson(const PanelSpec& q) {
  std::vector<std::string> parts;
  if (q.label_op != LabelOp::kNone) {
    const char* op = q.label_op == LabelOp::kSome      ? "some"
                     : q.label_op == LabelOp::kExactly ? "exactly"
                                                       : "at_least_and_more";
    std::string names;
    for (int id : q.labels) {
      if (!names.empty()) names += ",";
      mj::AppendQuoted(&names, agoraeo::bigearthnet::LabelById(id).name);
    }
    parts.push_back("\"labels\":{\"operator\":\"" + std::string(op) +
                    "\",\"names\":[" + names + "]}");
  }
  if (q.has_date) {
    parts.push_back("\"date_range\":{\"begin\":\"" + q.begin.ToString() +
                    "\",\"end\":\"" + q.end.ToString() + "\"}");
  }
  switch (q.geo) {
    case GeoShape::kNone:
      break;
    case GeoShape::kRect:
      parts.push_back("\"geo\":{\"rect\":{\"min_lat\":" + Num(q.min_lat) +
                      ",\"min_lon\":" + Num(q.min_lon) + ",\"max_lat\":" +
                      Num(q.max_lat) + ",\"max_lon\":" + Num(q.max_lon) +
                      "}}");
      break;
    case GeoShape::kCircle:
      parts.push_back("\"geo\":{\"circle\":{\"lat\":" + Num(q.c_lat) +
                      ",\"lon\":" + Num(q.c_lon) + ",\"radius_m\":" +
                      Num(q.radius_m) + "}}");
      break;
    case GeoShape::kPolygon: {
      std::string verts;
      for (const auto& [lat, lon] : q.polygon) {
        if (!verts.empty()) verts += ",";
        verts += "[" + Num(lat) + "," + Num(lon) + "]";
      }
      parts.push_back("\"geo\":{\"polygon\":[" + verts + "]}");
      break;
    }
  }
  if (!q.satellites.empty()) {
    std::string sats;
    for (const auto& s : q.satellites) {
      if (!sats.empty()) sats += ",";
      mj::AppendQuoted(&sats, s);
    }
    parts.push_back("\"satellites\":[" + sats + "]");
  }
  if (!q.seasons.empty()) {
    static const char* kSeasons[] = {"Winter", "Spring", "Summer", "Autumn"};
    std::string seasons;
    for (int s : q.seasons) {
      if (!seasons.empty()) seasons += ",";
      seasons += "\"" + std::string(kSeasons[s]) + "\"";
    }
    parts.push_back("\"seasons\":[" + seasons + "]");
  }
  if (q.limit != 0) parts.push_back("\"limit\":" + std::to_string(q.limit));
  std::string out = "{";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += ",";
    out += parts[i];
  }
  return out + "}";
}

namespace {

std::string SimMode(const SimSpec& sim) {
  std::string out = sim.knn ? "\"k\":" + std::to_string(sim.k)
                            : "\"radius\":" + std::to_string(sim.radius);
  if (!sim.knn && sim.limit != 0) {
    out += ",\"limit\":" + std::to_string(sim.limit);
  }
  return out + "}";
}

}  // namespace

std::string SimJson(const SimSpec& sim, const std::string& name) {
  std::string out = "{\"name\":";
  mj::AppendQuoted(&out, name);
  return out + "," + SimMode(sim);
}

std::string SimCodeJson(const SimSpec& sim, const std::string& bits) {
  return "{\"code\":\"" + bits + "\"," + SimMode(sim);
}

namespace {

/// Explore block: 20 panel requests, every 4th followed by a click.
const std::vector<std::pair<PanelFamily, int>> kExploreBlock = {
    {PanelFamily::kLabels, 4},          {PanelFamily::kDate, 2},
    {PanelFamily::kGeo, 5},             {PanelFamily::kSeasonSatellite, 2},
    {PanelFamily::kCombined, 7}};

}  // namespace

std::vector<Op> GenerateExplore(uint64_t seed, const GenContext& ctx,
                                size_t count) {
  Rand rng(seed);
  std::vector<Op> ops;
  while (ops.size() < count) {
    const std::vector<PanelFamily> block = Block(rng, kExploreBlock);
    for (size_t i = 0; i < block.size(); ++i) {
      const size_t anchor = rng.Below(ctx.pool);
      ops.push_back(PanelOp(rng, *ctx.ref, anchor, block[i]));
      if (i % 4 == 3) {
        // The user clicks the anchor, which matches every restriction.
        Op click;
        click.kind = OpKind::kPatch;
        click.family = "patch_click";
        click.patch = anchor;
        ops.push_back(std::move(click));
      }
    }
  }
  ops.resize(count);
  return ops;
}

namespace {

enum class SimFamily {
  kRadius, kRadiusHits, kKnn, kHybridPre, kHybridPost, kWalk, kUpload, kPanel
};

/// Similar block: 24 operations (the walks are 4 pages each).
const std::vector<std::pair<SimFamily, int>> kSimilarBlock = {
    {SimFamily::kRadius, 6},     {SimFamily::kRadiusHits, 2},
    {SimFamily::kKnn, 1},        {SimFamily::kHybridPre, 3},
    {SimFamily::kHybridPost, 3}, {SimFamily::kWalk, 2},
    {SimFamily::kUpload, 1}};

/// Cluster block: 24 requests; an ingest batch follows every 8th
/// request, so a block is 27 operations.  Three of the four pages of
/// each cursor walk resume from the coordinator's merged ranking, so the
/// fast operations (resumed pages, ingest, selective filters) make up
/// over half of a block and the median operation falls among them, not
/// in the wide gap between them and the fan-out-bound requests.
const std::vector<std::pair<SimFamily, int>> kClusterBlock = {
    {SimFamily::kPanel, 5},      {SimFamily::kRadius, 4},
    {SimFamily::kKnn, 1},        {SimFamily::kHybridPre, 1},
    {SimFamily::kHybridPost, 1}, {SimFamily::kWalk, 3}};

/// Appends the operation(s) of one similarity-family draw for `subject`.
void AppendSimilarity(Rand& rng, const RefArchive& ref, size_t subject,
                      SimFamily family, size_t upload_pool,
                      size_t* panel_turn, std::vector<Op>* ops) {
  const RefPatch& anchor = ref.patches[subject];
  switch (family) {
    case SimFamily::kRadius:
    case SimFamily::kRadiusHits: {
      const uint32_t radius = static_cast<uint32_t>(4 + 2 * rng.Below(3));
      const bool hits = family == SimFamily::kRadiusHits;
      const size_t limit = rng.Chance(0.5) ? 100 : 0;
      ops->push_back(SimilarOp(ref, hits ? "radius_hits" : "radius",
                               Radius(subject, radius, limit), std::nullopt,
                               hits));
      break;
    }
    case SimFamily::kKnn: {
      static const size_t kK[] = {10, 20, 50};
      ops->push_back(SimilarOp(ref, "knn", Knn(subject, kK[rng.Below(3)]),
                               std::nullopt, false));
      break;
    }
    case SimFamily::kHybridPre:
      ops->push_back(SimilarOp(ref, "hybrid_pre", Radius(subject, 10),
                               SelectiveFilter(rng, anchor), false));
      break;
    case SimFamily::kHybridPost:
      ops->push_back(SimilarOp(ref, "hybrid_post", Radius(subject, 8),
                               BroadFilter(rng, anchor), false));
      break;
    case SimFamily::kWalk:
      AppendWalk(ref, subject, 12, ops);
      break;
    case SimFamily::kUpload: {
      Op op;
      op.kind = OpKind::kUpload;
      op.family = "upload";
      op.sim = Radius(0, 8);
      op.sim->upload = true;
      op.upload_index = rng.Below(upload_pool);
      ops->push_back(std::move(op));
      break;
    }
    case SimFamily::kPanel: {
      static const PanelFamily kFamilies[] = {
          PanelFamily::kLabels, PanelFamily::kDate, PanelFamily::kGeo,
          PanelFamily::kSeasonSatellite, PanelFamily::kCombined};
      // Panel families take turns, so their mix is fixed too.
      ops->push_back(PanelOp(rng, ref, subject, kFamilies[(*panel_turn)++ % 5]));
      break;
    }
  }
}

}  // namespace

std::vector<Op> GenerateSimilar(uint64_t seed, const GenContext& ctx,
                                size_t count) {
  Rand rng(seed);
  const std::vector<size_t> subjects = PopularityOrder(ctx.pool);
  const Zipf zipf(ctx.pool, 1.0);
  size_t panel_turn = 0;
  std::vector<Op> ops;
  while (ops.size() < count) {
    for (SimFamily family : Block(rng, kSimilarBlock)) {
      AppendSimilarity(rng, *ctx.ref, subjects[zipf.Sample(rng)], family,
                       ctx.upload_pool, &panel_turn, &ops);
    }
  }
  // A walk cut by the resize keeps its first pages.
  ops.resize(count);
  return ops;
}

std::vector<Op> GenerateCluster(uint64_t seed, const GenContext& ctx,
                                size_t count) {
  Rand rng(seed);
  const std::vector<size_t> subjects = PopularityOrder(ctx.pool);
  const Zipf zipf(ctx.pool, 1.0);
  size_t panel_turn = 0;
  std::vector<Op> requests;
  while (requests.size() < count) {
    for (SimFamily family : Block(rng, kClusterBlock)) {
      AppendSimilarity(rng, *ctx.ref, subjects[zipf.Sample(rng)], family, 0,
                       &panel_turn, &requests);
    }
  }
  std::vector<Op> ops;
  size_t sent = 0;
  for (Op& request : requests) {
    if (ops.size() >= count) break;
    ops.push_back(std::move(request));
    if (++sent % kIngestEvery == 0) {
      Op ingest;
      ingest.kind = OpKind::kIngest;
      ingest.family = "ingest_batch";
      ops.push_back(std::move(ingest));
    }
  }
  ops.resize(count);
  return ops;
}

}  // namespace e2e
