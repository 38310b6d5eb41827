#include "reference.h"

#include <algorithm>
#include <cstdio>

namespace e2e {

std::string Ymd::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

RefArchive BuildReference(const agoraeo::bigearthnet::Archive& archive,
                          const std::vector<agoraeo::BinaryCode>& codes) {
  RefArchive ref;
  ref.patches.reserve(archive.patches.size());
  ref.words = codes.empty() ? 0 : codes[0].words().size();
  ref.codes.reserve(codes.size() * ref.words);
  for (size_t i = 0; i < archive.patches.size(); ++i) {
    const auto& meta = archive.patches[i];
    RefPatch p;
    p.name = meta.name;
    p.labels.assign(meta.labels.ids().begin(), meta.labels.ids().end());
    std::sort(p.labels.begin(), p.labels.end());
    p.country = meta.country;
    p.date = {meta.acquisition_date.year(), meta.acquisition_date.month(),
              meta.acquisition_date.day()};
    p.season = static_cast<int>(meta.season);
    // The satellite is the name's mission prefix; S2A is the fallback.
    p.satellite = meta.name.rfind("S2B", 0) == 0 ? "S2B" : "S2A";
    p.min_lat = meta.bounds.min.lat;
    p.min_lon = meta.bounds.min.lon;
    p.max_lat = meta.bounds.max.lat;
    p.max_lon = meta.bounds.max.lon;
    ref.index_of.emplace(p.name, i);
    ref.patches.push_back(std::move(p));
  }
  for (const auto& code : codes) {
    ref.codes.insert(ref.codes.end(), code.words().begin(),
                     code.words().end());
  }
  return ref;
}

std::string CodeBits(const uint64_t* code, size_t bits) {
  std::string out(bits, '0');
  for (size_t i = 0; i < bits; ++i) {
    if ((code[i >> 6] >> (i & 63)) & 1ULL) out[i] = '1';
  }
  return out;
}

std::vector<uint64_t> ParseCodeBits(const std::string& bits, size_t words) {
  std::vector<uint64_t> out(words, 0);
  for (size_t i = 0; i < bits.size() && (i >> 6) < words; ++i) {
    if (bits[i] == '1') out[i >> 6] |= 1ULL << (i & 63);
  }
  return out;
}

}  // namespace e2e
