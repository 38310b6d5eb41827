#include "checks.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "bigearthnet/clc_labels.h"

namespace e2e {
namespace {

constexpr double kEarthRadiusMeters = 6371008.8;
constexpr double kDegToRad = M_PI / 180.0;

double Haversine(double lat_a, double lon_a, double lat_b, double lon_b) {
  const double lat1 = lat_a * kDegToRad;
  const double lat2 = lat_b * kDegToRad;
  const double s1 = std::sin((lat_b - lat_a) * kDegToRad / 2.0);
  const double s2 = std::sin((lon_b - lon_a) * kDegToRad / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

/// Even-odd ray casting on the (lon, lat) plane.
bool InPolygon(const std::vector<std::pair<double, double>>& poly, double lat,
               double lon) {
  bool inside = false;
  for (size_t i = 0, j = poly.size() - 1; i < poly.size(); j = i++) {
    const double yi = poly[i].first, xi = poly[i].second;
    const double yj = poly[j].first, xj = poly[j].second;
    if (((yi > lat) != (yj > lat)) &&
        (lon < (xj - xi) * (lat - yi) / (yj - yi) + xi)) {
      inside = !inside;
    }
  }
  return inside;
}

bool Contains(const std::vector<int>& sorted, int id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

bool Fail(std::string* why, const std::string& what) {
  *why = what;
  return false;
}

int64_t IntField(const mj::Value& obj, const char* key, bool* ok) {
  const mj::Value* v = obj.Get(key);
  if (v == nullptr || !v->is_number()) {
    *ok = false;
    return 0;
  }
  return static_cast<int64_t>(v->num);
}

/// Compares one result row against the reference patch.
bool VerifyEntry(const mj::Value& row, const RefPatch& p, bool full,
                 std::string* why) {
  const mj::Value* name = row.Get("name");
  if (name == nullptr || !name->is_string() || name->str != p.name) {
    return Fail(why, "row name " + (name ? name->str : "<none>") +
                         " != expected " + p.name);
  }
  if (!full) return true;
  const mj::Value* labels = row.Get("labels");
  if (labels == nullptr || !labels->is_array() ||
      labels->arr.size() != p.labels.size()) {
    return Fail(why, "labels of " + p.name + " differ in count");
  }
  for (size_t i = 0; i < p.labels.size(); ++i) {
    if (labels->arr[i].str != agoraeo::bigearthnet::LabelById(p.labels[i]).name) {
      return Fail(why, "label " + std::to_string(i) + " of " + p.name);
    }
  }
  const mj::Value* country = row.Get("country");
  if (country == nullptr || country->str != p.country) {
    return Fail(why, "country of " + p.name);
  }
  const mj::Value* date = row.Get("date");
  if (date == nullptr || date->str != p.date.ToString()) {
    return Fail(why, "date of " + p.name);
  }
  const mj::Value* lat = row.Get("lat");
  const mj::Value* lon = row.Get("lon");
  if (lat == nullptr || lon == nullptr || !lat->is_number() ||
      !lon->is_number() || std::fabs(lat->num - p.c_lat()) > 1e-6 ||
      std::fabs(lon->num - p.c_lon()) > 1e-6) {
    return Fail(why, "map location of " + p.name);
  }
  return true;
}

/// Label-statistics bars over `rows`: descending count, then label id.
bool VerifyStatistics(const mj::Value& resp, const RefArchive& ref,
                      const std::vector<size_t>& rows, std::string* why) {
  std::array<size_t, agoraeo::bigearthnet::kNumLabels> counts{};
  for (size_t i : rows) {
    for (int id : ref.patches[i].labels) ++counts[static_cast<size_t>(id)];
  }
  std::vector<std::pair<size_t, int>> bars;
  for (int id = 0; id < agoraeo::bigearthnet::kNumLabels; ++id) {
    if (counts[static_cast<size_t>(id)] > 0) {
      bars.emplace_back(counts[static_cast<size_t>(id)], id);
    }
  }
  std::sort(bars.begin(), bars.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const mj::Value* stats = resp.Get("label_statistics");
  if (stats == nullptr || !stats->is_array() ||
      stats->arr.size() != bars.size()) {
    return Fail(why, "label_statistics bar count " +
                         std::to_string(stats ? stats->arr.size() : 0) +
                         " != expected " + std::to_string(bars.size()));
  }
  for (size_t i = 0; i < bars.size(); ++i) {
    const mj::Value& bar = stats->arr[i];
    const mj::Value* label = bar.Get("label");
    const mj::Value* count = bar.Get("count");
    if (label == nullptr || count == nullptr ||
        label->str !=
            agoraeo::bigearthnet::LabelById(bars[i].second).name ||
        static_cast<size_t>(count->num) != bars[i].first) {
      return Fail(why, "label_statistics bar " + std::to_string(i));
    }
  }
  return true;
}

bool VerifyPaging(const mj::Value& resp, size_t total, size_t page,
                  bool more, std::string* why) {
  bool ok = true;
  const int64_t got_total = IntField(resp, "total", &ok);
  const int64_t got_page = IntField(resp, "page", &ok);
  const int64_t got_size = IntField(resp, "page_size", &ok);
  if (!ok) return Fail(why, "missing total/page/page_size");
  if (static_cast<size_t>(got_total) != total) {
    return Fail(why, "total " + std::to_string(got_total) + " != expected " +
                         std::to_string(total));
  }
  if (static_cast<size_t>(got_page) != page ||
      static_cast<size_t>(got_size) != kPageSize) {
    return Fail(why, "page/page_size echo");
  }
  const mj::Value* cursor = resp.Get("cursor");
  if (cursor == nullptr || !cursor->is_string() ||
      cursor->str.empty() == more) {
    return Fail(why, std::string("cursor presence, expected ") +
                         (more ? "a cursor" : "none"));
  }
  return true;
}

}  // namespace

bool Matches(const PanelSpec& q, const RefPatch& p) {
  switch (q.label_op) {
    case LabelOp::kNone:
      break;
    case LabelOp::kSome: {
      bool any = false;
      for (int id : q.labels) any = any || Contains(p.labels, id);
      if (!any) return false;
      break;
    }
    case LabelOp::kExactly:
      if (p.labels != q.labels) return false;
      break;
    case LabelOp::kAll:
      for (int id : q.labels) {
        if (!Contains(p.labels, id)) return false;
      }
      break;
  }
  if (q.has_date && !(q.begin <= p.date && p.date <= q.end)) return false;
  switch (q.geo) {
    case GeoShape::kNone:
      break;
    case GeoShape::kRect:
      if (p.min_lat > q.max_lat || p.max_lat < q.min_lat ||
          p.min_lon > q.max_lon || p.max_lon < q.min_lon) {
        return false;
      }
      break;
    case GeoShape::kCircle:
      if (Haversine(q.c_lat, q.c_lon, p.c_lat(), p.c_lon()) > q.radius_m) {
        return false;
      }
      break;
    case GeoShape::kPolygon:
      if (!InPolygon(q.polygon, p.c_lat(), p.c_lon())) return false;
      break;
  }
  if (!q.satellites.empty() &&
      std::find(q.satellites.begin(), q.satellites.end(), p.satellite) ==
          q.satellites.end()) {
    return false;
  }
  if (!q.seasons.empty() &&
      std::find(q.seasons.begin(), q.seasons.end(), p.season) ==
          q.seasons.end()) {
    return false;
  }
  return true;
}

std::vector<size_t> ExpectPanel(const RefArchive& ref, size_t visible,
                                const PanelSpec& panel) {
  std::vector<size_t> out;
  for (size_t i = 0; i < visible; ++i) {
    if (!Matches(panel, ref.patches[i])) continue;
    out.push_back(i);
    if (panel.limit != 0 && out.size() >= panel.limit) break;
  }
  return out;
}

SimExpect ExpectSimilar(const RefArchive& ref, size_t visible,
                        const uint64_t* query, size_t exclude,
                        const SimSpec& sim, const PanelSpec* filter,
                        size_t page, size_t page_size) {
  const int max_d = static_cast<int>(ref.words * 64);
  const int bound = sim.knn ? max_d : static_cast<int>(sim.radius);
  std::vector<std::vector<size_t>> buckets(static_cast<size_t>(bound) + 1);
  for (size_t i = 0; i < visible; ++i) {
    const int d = Distance(ref.code(i), query, ref.words);
    if (d <= bound) buckets[static_cast<size_t>(d)].push_back(i);
  }
  const size_t cap = sim.knn ? sim.k : sim.limit;  // 0 = uncapped (radius)
  const size_t begin = page * page_size;
  const size_t need = begin + page_size + 1;
  SimExpect out;
  if (sim.knn && sim.k == 0) return out;
  std::vector<std::pair<size_t, int>> survivors;
  for (int d = 0; d <= bound; ++d) {
    for (size_t i : buckets[static_cast<size_t>(d)]) {
      if (i == exclude) continue;
      if (filter != nullptr && !Matches(*filter, ref.patches[i])) continue;
      survivors.emplace_back(i, d);
      if ((cap != 0 && survivors.size() >= cap) || survivors.size() >= need) {
        goto done;
      }
    }
  }
done:
  for (size_t r = begin; r < survivors.size() && r < begin + page_size; ++r) {
    out.window.push_back(survivors[r].first);
    out.distance.push_back(survivors[r].second);
  }
  out.more = survivors.size() >= need;
  out.total = begin + out.window.size() + (out.more ? 1 : 0);
  return out;
}

bool VerifyPanel(const mj::Value& resp, const RefArchive& ref,
                 const std::vector<size_t>& entries, size_t page,
                 std::string* why) {
  const size_t begin = std::min(entries.size(), page * kPageSize);
  const size_t end = std::min(entries.size(), begin + kPageSize);
  if (!VerifyPaging(resp, entries.size(), page, end < entries.size(), why)) {
    return false;
  }
  const mj::Value* results = resp.Get("results");
  if (results == nullptr || !results->is_array() ||
      results->arr.size() != end - begin) {
    return Fail(why, "panel results count " +
                         std::to_string(results ? results->arr.size() : 0) +
                         " != expected " + std::to_string(end - begin));
  }
  for (size_t r = begin; r < end; ++r) {
    if (!VerifyEntry(results->arr[r - begin], ref.patches[entries[r]], true,
                     why)) {
      return false;
    }
  }
  // Panel statistics cover every returned entry, not just the page.
  return VerifyStatistics(resp, ref, entries, why);
}

bool VerifySimilar(const mj::Value& resp, const RefArchive& ref,
                   const SimExpect& expect, bool full_projection,
                   size_t page, std::string* why) {
  if (!VerifyPaging(resp, expect.total, page, expect.more, why)) return false;
  const mj::Value* results = resp.Get("results");
  if (results == nullptr || !results->is_array() ||
      results->arr.size() != expect.window.size()) {
    return Fail(why, "similarity results count " +
                         std::to_string(results ? results->arr.size() : 0) +
                         " != expected " +
                         std::to_string(expect.window.size()));
  }
  for (size_t r = 0; r < expect.window.size(); ++r) {
    const mj::Value& row = results->arr[r];
    if (!VerifyEntry(row, ref.patches[expect.window[r]], full_projection,
                     why)) {
      return Fail(why, "rank " + std::to_string(r) + ": " + *why);
    }
    const mj::Value* distance = row.Get("distance");
    if (distance == nullptr ||
        static_cast<int>(distance->num) != expect.distance[r]) {
      return Fail(why, "distance at rank " + std::to_string(r));
    }
  }
  if (!full_projection) {
    if (resp.Get("label_statistics") != nullptr) {
      return Fail(why, "hits projection carries label_statistics");
    }
    return true;
  }
  // Windowed similarity statistics cover the window.
  return VerifyStatistics(resp, ref, expect.window, why);
}

bool VerifyPatch(const mj::Value& resp, const RefArchive& ref, size_t index,
                 std::string* why) {
  const RefPatch& p = ref.patches[index];
  const mj::Value* name = resp.Get("name");
  if (name == nullptr || name->str != p.name) return Fail(why, "patch name");
  const mj::Value* labels = resp.Get("labels");
  if (labels == nullptr || labels->arr.size() != p.labels.size()) {
    return Fail(why, "patch labels");
  }
  for (size_t i = 0; i < p.labels.size(); ++i) {
    if (labels->arr[i].str != agoraeo::bigearthnet::LabelById(p.labels[i]).name) {
      return Fail(why, "patch label " + std::to_string(i));
    }
  }
  const mj::Value* country = resp.Get("country");
  const mj::Value* date = resp.Get("date");
  if (country == nullptr || country->str != p.country || date == nullptr ||
      date->str != p.date.ToString()) {
    return Fail(why, "patch country/date");
  }
  static const char* kSeasons[] = {"Winter", "Spring", "Summer", "Autumn"};
  const mj::Value* season = resp.Get("season");
  if (season == nullptr || season->str != kSeasons[p.season]) {
    return Fail(why, "patch season");
  }
  const mj::Value* bounds = resp.Get("bounds");
  if (bounds == nullptr) return Fail(why, "patch bounds missing");
  const double expect[4] = {p.min_lat, p.min_lon, p.max_lat, p.max_lon};
  const char* keys[4] = {"min_lat", "min_lon", "max_lat", "max_lon"};
  for (int i = 0; i < 4; ++i) {
    const mj::Value* v = bounds->Get(keys[i]);
    if (v == nullptr || std::fabs(v->num - expect[i]) > 1e-6) {
      return Fail(why, std::string("patch bounds ") + keys[i]);
    }
  }
  return true;
}

bool SelfTest(const RefArchive& ref, const std::vector<SelfTestCase>& cases,
              std::string* why) {
  const auto verify = [&](const SelfTestCase& c, const mj::Value& v) {
    std::string ignored;
    return c.panel ? VerifyPanel(v, ref, c.entries, c.page, &ignored)
                   : VerifySimilar(v, ref, c.sim, c.full_projection, c.page,
                                   &ignored);
  };
  size_t exercised = 0;
  for (const SelfTestCase& c : cases) {
    mj::Value base;
    std::string error;
    if (!mj::Parse(c.body, &base, &error)) return Fail(why, error);
    if (!verify(c, base)) {
      return Fail(why, "self-test: the unperturbed response is rejected");
    }
    mj::Value* results = nullptr;
    mj::Value* total = nullptr;
    for (auto& [key, value] : base.obj) {
      if (key == "results") results = &value;
      if (key == "total") total = &value;
    }
    if (results == nullptr || total == nullptr || results->arr.size() < 2) {
      continue;
    }
    ++exercised;
    mj::Value dropped = base;
    for (auto& [key, value] : dropped.obj) {
      if (key == "results") value.arr.erase(value.arr.begin() + 1);
    }
    if (verify(c, dropped)) return Fail(why, "self-test: dropped hit accepted");
    mj::Value swapped = base;
    for (auto& [key, value] : swapped.obj) {
      if (key == "results") std::swap(value.arr[0], value.arr[1]);
    }
    if (verify(c, swapped)) return Fail(why, "self-test: swapped order accepted");
    mj::Value wrong_total = base;
    for (auto& [key, value] : wrong_total.obj) {
      if (key == "total") value.num += 1;
    }
    if (verify(c, wrong_total)) {
      return Fail(why, "self-test: wrong total accepted");
    }
  }
  if (exercised == 0) return Fail(why, "self-test: no response with 2+ rows");
  return true;
}

}  // namespace e2e
