// Independent output checks: expected answers computed with plain loops
// over the reference archive, and verifiers that compare a response body
// (parsed with the benchmark's own JSON reader) against them.
#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "minijson.h"
#include "reference.h"
#include "requests.h"

namespace e2e {

/// Whether patch `p` satisfies every restriction of `panel`.
bool Matches(const PanelSpec& panel, const RefPatch& p);

/// Archive indices a panel-only query returns, in ingest order, capped
/// by the panel limit; only the first `visible` patches are searched.
std::vector<size_t> ExpectPanel(const RefArchive& ref, size_t visible,
                                const PanelSpec& panel);

/// The expected window of a similarity (or hybrid) request.
struct SimExpect {
  std::vector<size_t> window;  ///< archive indices, in rank order
  std::vector<int> distance;   ///< their Hamming distances
  bool more = false;           ///< a further page exists
  size_t total = 0;            ///< the lower-bound total the API reports
};

/// Brute-force ranking over the first `visible` codes by (distance,
/// ingest order), without `exclude` (SIZE_MAX = none), restricted to
/// `filter` (may be null), capped by the radius limit or k, and sliced
/// to page `page` of `page_size`.
SimExpect ExpectSimilar(const RefArchive& ref, size_t visible,
                        const uint64_t* query, size_t exclude,
                        const SimSpec& sim, const PanelSpec* filter,
                        size_t page, size_t page_size);

/// Response verifiers: true when `resp` is exactly the expected answer;
/// otherwise false with the first difference in `why`.
bool VerifyPanel(const mj::Value& resp, const RefArchive& ref,
                 const std::vector<size_t>& entries, size_t page,
                 std::string* why);
bool VerifySimilar(const mj::Value& resp, const RefArchive& ref,
                   const SimExpect& expect, bool full_projection,
                   size_t page, std::string* why);
bool VerifyPatch(const mj::Value& resp, const RefArchive& ref, size_t index,
                 std::string* why);

/// Perturbs verified responses (dropped hit, swapped order, wrong total)
/// and confirms the verifiers reject each one.  Returns false, with the
/// reason, when a perturbed response is accepted.
struct SelfTestCase {
  std::string body;
  bool panel = false;
  std::vector<size_t> entries;  ///< panel expectation
  SimExpect sim;                ///< similarity expectation
  bool full_projection = true;
  size_t page = 0;
};
bool SelfTest(const RefArchive& ref, const std::vector<SelfTestCase>& cases,
              std::string* why);

}  // namespace e2e

#endif  // E2EBENCH_CHECKS_H_
