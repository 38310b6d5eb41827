#include "replay.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "http_client.h"
#include "util.h"

namespace e2e {
namespace {

/// One spooled outcome: which op, the HTTP status, how many patches
/// were visible when it was sent, an auxiliary string (an upload's code
/// bits) and the response body.
struct RecordHeader {
  uint32_t op_index;
  int32_t status;
  uint64_t visible;
  uint32_t aux_len;
  uint32_t body_len;
};

struct Record {
  RecordHeader h;
  std::string aux;
  std::string body;
};

/// The continuation cursor at the end of a single v2 response.
std::string CursorOf(const std::string& body) {
  const std::string key = "\"cursor\":\"";
  const size_t at = body.rfind(key);
  if (at == std::string::npos) return {};
  const size_t begin = at + key.size();
  const size_t end = body.find('"', begin);
  return end == std::string::npos ? std::string()
                                  : body.substr(begin, end - begin);
}

struct ClientOut {
  std::vector<OpTime> timings;
  std::map<std::string, FamilyStats> families;
  std::vector<std::string> failures;
  std::vector<std::pair<size_t, size_t>> ingest_counts;
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t end_ns = 0;
};

/// Shared by a replay's clients: operations completed so far, and the
/// peak RSS read when that count reached the requested mark.
struct Progress {
  std::atomic<size_t> completed{0};
  size_t rss_after_ops = 0;
  std::atomic<double> peak_rss_mb{0.0};
};

void RunClient(const Target& target, const std::vector<Op>& ops,
               const std::string& spool, uint64_t start_ns,
               uint64_t deadline_ns, size_t max_ops, Progress* progress,
               ClientOut* out) {
  FILE* f = std::fopen(spool.c_str(), "wb");
  if (f == nullptr) Die("cannot open spool " + spool);
  std::string walk_cursor;
  size_t prev_walk_page = SIZE_MAX;
  while (NowNs() < start_ns) std::this_thread::yield();
  for (size_t n = 0;; ++n) {
    if (max_ops != 0 ? n >= max_ops : NowNs() >= deadline_ns) break;
    if (target.cluster != nullptr && n > 0 && n % kClusterRoundOps == 0) {
      target.cluster->NextRound();
    }
    const uint32_t index = static_cast<uint32_t>(n % ops.size());
    const Op& op = ops[index];
    const uint64_t visible =
        target.cluster != nullptr ? target.cluster->num_visible()
                                  : target.ref->patches.size();
    const uint16_t port =
        target.cluster != nullptr ? target.cluster->port : target.port;
    std::string aux;
    HttpResult result;
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    switch (op.kind) {
      case OpKind::kPanel:
      case OpKind::kSimilar:
        result = HttpCall(port, "POST", "/api/v2/query",
                          CloseBody(op.body_prefix));
        break;
      case OpKind::kWalkPage: {
        std::string body = op.body_prefix;
        if (op.page == 0) {
          // first page: no cursor
        } else if (prev_walk_page + 1 == op.page && !walk_cursor.empty()) {
          body += ",\"cursor\":\"" + walk_cursor + "\"";
        } else {
          body += ",\"page\":" + std::to_string(op.page);
        }
        result = HttpCall(port, "POST", "/api/v2/query",
                          CloseBody(body));
        break;
      }
      case OpKind::kPatch:
        result = HttpCall(
            port, "GET",
            "/api/patch/" +
                PercentEncode(target.ref->patches[op.patch].name),
            "");
        break;
      case OpKind::kUpload: {
        agoraeo::StatusOr<agoraeo::BinaryCode> code =
            agoraeo::Status::Internal("unset");
        {
          std::lock_guard<std::mutex> lock(*target.hash_mu);
          code = target.hasher->HashPatch((*target.uploads)[op.upload_index]);
        }
        if (!code.ok()) {
          result.error = "HashPatch: " + code.status().ToString();
          break;
        }
        aux = code->ToBitString();
        result = HttpCall(port, "POST", "/api/v2/query",
                          "{\"similarity\":" + SimCodeJson(*op.sim, aux) + "}");
        break;
      }
      case OpKind::kIngest: {
        const agoraeo::Status status = target.cluster->IngestNextBatch();
        result.ok = status.ok();
        result.status = status.ok() ? 200 : 500;
        if (!status.ok()) result.error = status.ToString();
        break;
      }
    }
    const uint64_t t1 = NowNs();
    const uint64_t cpu1 = ProcessCpuNs();
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    ++out->attempted;
    out->timings.push_back({t0, t1, cpu0, cpu1});
    if (++progress->completed == progress->rss_after_ops) {
      progress->peak_rss_mb = PeakRssMb();
    }
    FamilyStats& fam = out->families[op.family];
    ++fam.count;
    fam.total_ms += ms;
    if (op.kind == OpKind::kWalkPage) {
      prev_walk_page = op.page;
      walk_cursor = result.ok ? CursorOf(result.body) : std::string();
    } else {
      prev_walk_page = SIZE_MAX;
    }
    if (!result.ok || result.status != 200) {
      ++out->failed;
      if (out->failures.size() < 5) {
        out->failures.push_back(op.family + ": " +
                                (result.ok ? "HTTP " +
                                                 std::to_string(result.status) +
                                                 " " + result.body.substr(0, 200)
                                           : result.error));
      }
    }
    if (op.kind == OpKind::kIngest && result.ok) {
      size_t sum = 0;
      for (const auto& system : target.cluster->systems) {
        sum += system->num_images();
      }
      out->ingest_counts.emplace_back(target.cluster->num_visible(), sum);
    }
    const RecordHeader h{index, result.ok ? result.status : -1, visible,
                         static_cast<uint32_t>(aux.size()),
                         static_cast<uint32_t>(result.body.size())};
    std::fwrite(&h, sizeof(h), 1, f);
    std::fwrite(aux.data(), 1, aux.size(), f);
    std::fwrite(result.body.data(), 1, result.body.size(), f);
  }
  out->end_ns = NowNs();
  std::fclose(f);
}

std::vector<Record> ReadSpool(const std::string& path) {
  std::vector<Record> out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) Die("cannot reopen spool " + path);
  RecordHeader h{};
  while (std::fread(&h, sizeof(h), 1, f) == 1) {
    Record r;
    r.h = h;
    r.aux.resize(h.aux_len);
    r.body.resize(h.body_len);
    if ((h.aux_len > 0 && std::fread(r.aux.data(), 1, h.aux_len, f) != h.aux_len) ||
        (h.body_len > 0 &&
         std::fread(r.body.data(), 1, h.body_len, f) != h.body_len)) {
      Die("truncated spool " + path);
    }
    out.push_back(std::move(r));
  }
  std::fclose(f);
  std::remove(path.c_str());
  return out;
}

}  // namespace

ReplayResult Replay(const Target& target,
                    const std::vector<std::vector<Op>>& sequences,
                    double seconds, size_t max_ops, size_t rss_after_ops) {
  ReplayResult result;
  Progress progress;
  progress.rss_after_ops = rss_after_ops;
  std::vector<ClientOut> outs(sequences.size());
  std::vector<std::thread> threads;
  static std::atomic<int> replay_counter{0};
  const int replay_id = replay_counter++;
  for (size_t c = 0; c < sequences.size(); ++c) {
    result.spools.push_back(target.spool_dir + "/spool-" +
                            std::to_string(replay_id) + "-" +
                            std::to_string(c) + ".bin");
  }
  const uint64_t start_ns = NowNs() + 20'000'000;  // clients start together
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < start_ns - 5'000'000) std::this_thread::yield();
  const uint64_t cpu0 = ProcessCpuNs();
  // Host ticks sampled every 100 ms, for the per-window contention.
  std::atomic<bool> running{true};
  std::thread sampler([&] {
    while (running) {
      result.samples.push_back({NowNs(), ReadHostTicks()});
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  for (size_t c = 0; c < sequences.size(); ++c) {
    threads.emplace_back(RunClient, std::cref(target), std::cref(sequences[c]),
                         std::cref(result.spools[c]), start_ns, deadline_ns,
                         max_ops, &progress, &outs[c]);
  }
  for (std::thread& t : threads) t.join();
  const uint64_t cpu1 = ProcessCpuNs();
  running = false;
  sampler.join();
  result.peak_rss_mb =
      progress.peak_rss_mb > 0 ? progress.peak_rss_mb.load() : PeakRssMb();
  result.start_ns = start_ns;
  uint64_t end_ns = start_ns;
  for (const ClientOut& out : outs) {
    end_ns = std::max(end_ns, out.end_ns);
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.timings.push_back(out.timings);
    for (const auto& [family, stats] : out.families) {
      result.families[family].count += stats.count;
      result.families[family].total_ms += stats.total_ms;
    }
    for (const std::string& f : out.failures) result.failures.push_back(f);
    result.ingest_counts.insert(result.ingest_counts.end(),
                                out.ingest_counts.begin(),
                                out.ingest_counts.end());
  }
  result.wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
  result.cpu_ns = cpu1 - cpu0;
  return result;
}

namespace {

/// Checks one record; false with `why` on a mismatch.  Records of failed
/// operations and ingest batches carry no answer to check.
bool CheckRecord(const Target& target, const Op& op, const Record& r,
                 SelfTestCase* sample, std::string* why) {
  const RefArchive& ref = *target.ref;
  mj::Value resp;
  std::string error;
  if (!mj::Parse(r.body, &resp, &error)) {
    *why = "unparseable response: " + error;
    return false;
  }
  sample->body = r.body;
  sample->page = op.page;
  sample->full_projection = !op.hits_projection;
  switch (op.kind) {
    case OpKind::kPanel:
      sample->panel = true;
      sample->entries = ExpectPanel(ref, r.h.visible, *op.panel);
      return VerifyPanel(resp, ref, sample->entries, 0, why);
    case OpKind::kPatch:
      return VerifyPatch(resp, ref, op.patch, why);
    case OpKind::kSimilar:
    case OpKind::kWalkPage:
      sample->sim = ExpectSimilar(ref, r.h.visible, ref.code(op.sim->subject),
                                  op.sim->subject, *op.sim,
                                  op.panel ? &*op.panel : nullptr, op.page,
                                  kPageSize);
      return VerifySimilar(resp, ref, sample->sim, !op.hits_projection,
                           op.page, why);
    case OpKind::kUpload: {
      const std::vector<uint64_t> code = ParseCodeBits(r.aux, ref.words);
      sample->sim = ExpectSimilar(ref, r.h.visible, code.data(), SIZE_MAX,
                                  *op.sim, nullptr, 0, kPageSize);
      return VerifySimilar(resp, ref, sample->sim, true, 0, why);
    }
    case OpKind::kIngest:
      return true;
  }
  return true;
}

/// Names of the result rows of a response body (empty when unparseable).
std::vector<std::string> RowNames(const std::string& body) {
  mj::Value v;
  std::string error;
  std::vector<std::string> out;
  if (!mj::Parse(body, &v, &error)) return out;
  const mj::Value* rows = v.Get("results");
  if (rows == nullptr) return out;
  for (const mj::Value& row : rows->arr) {
    const mj::Value* name = row.Get("name");
    out.push_back(name != nullptr ? name->str : std::string());
  }
  return out;
}

/// Every complete cursor walk (pages 0..kWalkDepth-1 in a row, all
/// answered, no ingest in between) must concatenate to the prefix of the
/// brute-force ranking.
void CheckWalks(const Target& target, const std::vector<Op>& ops,
                const std::vector<Record>& records, VerifyResult* result) {
  const RefArchive& ref = *target.ref;
  for (size_t i = 0; i + kWalkDepth <= records.size(); ++i) {
    const Op& first = ops[records[i].h.op_index];
    if (first.kind != OpKind::kWalkPage || first.page != 0) continue;
    bool complete = true;
    std::vector<std::string> names;
    for (size_t p = 0; p < kWalkDepth && complete; ++p) {
      const Record& r = records[i + p];
      const Op& op = ops[r.h.op_index];
      complete = op.kind == OpKind::kWalkPage && op.page == p &&
                 r.h.status == 200 && r.h.visible == records[i].h.visible;
      for (std::string& name : RowNames(r.body)) names.push_back(name);
    }
    if (!complete) continue;
    const SimExpect prefix = ExpectSimilar(
        ref, records[i].h.visible, ref.code(first.sim->subject),
        first.sim->subject, *first.sim, nullptr, 0, kPageSize * kWalkDepth);
    bool same = prefix.window.size() == names.size();
    for (size_t k = 0; same && k < names.size(); ++k) {
      same = ref.patches[prefix.window[k]].name == names[k];
    }
    ++result->checked;
    if (!same) {
      ++result->mismatches;
      if (result->reasons.size() < 5) {
        result->reasons.push_back("cursor walk at op " +
                                  std::to_string(records[i].h.op_index) +
                                  " does not concatenate to the ranking prefix");
      }
    }
  }
}

}  // namespace

VerifyResult VerifySpools(const Target& target,
                          const std::vector<std::vector<Op>>& sequences,
                          const ReplayResult& replay) {
  VerifyResult result;
  std::mutex mu;
  for (size_t c = 0; c < sequences.size(); ++c) {
    const std::vector<Op>& ops = sequences[c];
    const std::vector<Record> records = ReadSpool(replay.spools[c]);
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        while (true) {
          const size_t i = next++;
          if (i >= records.size()) break;
          const Record& r = records[i];
          const Op& op = ops[r.h.op_index];
          if (r.h.status != 200 || op.kind == OpKind::kIngest) continue;
          SelfTestCase sample;
          std::string why;
          const bool ok = CheckRecord(target, op, r, &sample, &why);
          std::lock_guard<std::mutex> lock(mu);
          ++result.checked;
          if (!ok) {
            ++result.mismatches;
            if (result.reasons.size() < 5) {
              result.reasons.push_back(op.family + " op " +
                                       std::to_string(r.h.op_index) + ": " +
                                       why);
            }
          } else if (op.kind != OpKind::kPatch && result.samples.size() < 8) {
            mj::Value v;
            std::string e;
            mj::Parse(r.body, &v, &e);
            const mj::Value* rows = v.Get("results");
            if (rows != nullptr && rows->arr.size() >= 2) {
              result.samples.push_back(std::move(sample));
            }
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
    CheckWalks(target, ops, records, &result);
    std::vector<bool> seen(ops.size(), false);
    for (const Record& r : records) {
      const OpKind kind = ops[r.h.op_index].kind;
      if ((kind == OpKind::kSimilar || kind == OpKind::kWalkPage) &&
          !seen[r.h.op_index]) {
        seen[r.h.op_index] = true;
        ++result.distinct_similarity;
        result.distinct_similarity_bytes += r.body.size();
      }
    }
  }
  return result;
}

}  // namespace e2e
