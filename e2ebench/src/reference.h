// The benchmark's own copy of the archive it generated: per-patch
// metadata and binary codes in ingest order.  Every expected answer is
// computed from this copy with plain loops, never through the program's
// query paths.
#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "common/binary_code.h"

namespace e2e {

struct Ymd {
  int y = 0, m = 0, d = 0;
  bool operator<=(const Ymd& o) const {
    if (y != o.y) return y < o.y;
    if (m != o.m) return m < o.m;
    return d <= o.d;
  }
  std::string ToString() const;
};

struct RefPatch {
  std::string name;
  std::vector<int> labels;  ///< sorted label ids
  std::string country;
  Ymd date;
  int season = 0;
  std::string satellite;
  double min_lat = 0, min_lon = 0, max_lat = 0, max_lon = 0;
  double c_lat() const { return (min_lat + max_lat) / 2.0; }
  double c_lon() const { return (min_lon + max_lon) / 2.0; }
};

struct RefArchive {
  std::vector<RefPatch> patches;
  size_t words = 0;              ///< 64-bit words per code
  std::vector<uint64_t> codes;   ///< patches.size() * words, ingest order
  std::unordered_map<std::string, size_t> index_of;

  const uint64_t* code(size_t i) const { return codes.data() + i * words; }
};

/// Copies the archive's metadata and the given codes (codes[i] belongs
/// to archive.patches[i]).
RefArchive BuildReference(const agoraeo::bigearthnet::Archive& archive,
                          const std::vector<agoraeo::BinaryCode>& codes);

/// Hamming distance between two codes of `words` words.
inline int Distance(const uint64_t* a, const uint64_t* b, size_t words) {
  int d = 0;
  for (size_t w = 0; w < words; ++w) d += __builtin_popcountll(a[w] ^ b[w]);
  return d;
}

/// The bit string the v2 API's "code" field takes (bit 0 first).
std::string CodeBits(const uint64_t* code, size_t bits);
/// Parses a "code" bit string back into words.
std::vector<uint64_t> ParseCodeBits(const std::string& bits, size_t words);

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_H_
