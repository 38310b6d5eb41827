#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "cluster/wire.h"
#include "earthqube/schema.h"
#include "http_client.h"
#include "json/json.h"
#include "minijson.h"
#include "util.h"

namespace e2e {

using namespace agoraeo;

namespace {

constexpr size_t kProbeSamples = 40;
constexpr size_t kClusterProbeSamples = 24;
constexpr int kProbeRepeats = 3;

double Field(const mj::Value* obj, const char* key) {
  const mj::Value* v = obj == nullptr ? nullptr : obj->Get(key);
  return v != nullptr && v->is_number() ? v->num : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Per-request samples of one probe pass.
struct Samples {
  std::vector<double> round_trip, decode, execute, encode, bytes;
  std::vector<double> filter, search, frontier;
  double examined = 0, filter_results = 0;
  double candidates = 0, index_results = 0;
  /// Per request: round trip minus decode, Execute and encode.
  std::vector<double> http_overhead;
  /// Paged CBIR-only requests: Execute and frontier open, paired, and
  /// Execute minus frontier open.
  std::vector<double> cbir_execute, cbir_frontier, execute_beyond_frontier;
};

/// The body a probe sends for `op` (uploads use `code_bits`).
std::string ProbeBody(const Op& op, const std::string& code_bits) {
  if (op.kind == OpKind::kUpload) {
    return "{\"similarity\":" + SimCodeJson(*op.sim, code_bits) + "}";
  }
  return CloseBody(op.body_prefix);
}

bool Probeable(const Op& op) {
  return op.kind == OpKind::kPanel || op.kind == OpKind::kSimilar ||
         op.kind == OpKind::kUpload ||
         (op.kind == OpKind::kWalkPage && op.page == 0);
}

void ProbeOps(Monolith& m, const Target& target, const std::vector<Op>& ops,
              Samples* s) {
  earthqube::EarthQube& system = *m.system;
  const earthqube::CbirService& cbir = m.cbir();
  const docstore::Collection* metadata =
      system.database().GetCollection(earthqube::kMetadataCollection);
  size_t taken = 0;
  for (const Op& op : ops) {
    if (taken >= kProbeSamples) break;
    if (!Probeable(op)) continue;
    ++taken;
    BinaryCode upload_code;
    if (op.kind == OpKind::kUpload) {
      auto code = cbir.HashPatch((*target.uploads)[op.upload_index]);
      if (!code.ok()) Die("HashPatch: " + code.status().ToString());
      upload_code = *code;
    }
    const std::string body = ProbeBody(op, upload_code.ToBitString());

    // Each layer's time is the best of kProbeRepeats cold repetitions:
    // the host's CPU steal only ever adds time, so the minimum is the
    // steadiest estimate of the work itself.
    uint64_t rt = UINT64_MAX, decode = UINT64_MAX, execute = UINT64_MAX,
             encode = UINT64_MAX;
    StatusOr<earthqube::QueryRequest> request =
        Status::Internal("not decoded");
    std::string encoded;
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      system.query_cache().Invalidate();
      uint64_t t = NowNs();
      const HttpResult http = HttpCall(m.port, "POST", "/api/v2/query", body);
      rt = std::min(rt, NowNs() - t);
      if (!http.ok || http.status != 200) Die("probe request failed: " + op.family);

      system.query_cache().Invalidate();
      t = NowNs();
      auto doc = json::ParseObject(body);
      if (!doc.ok()) Die("probe body does not parse");
      request = netsvc::EarthQubeService::QueryRequestFromJson(*doc);
      decode = std::min(decode, NowNs() - t);
      if (!request.ok()) Die("probe request rejected: " + request.status().ToString());

      t = NowNs();
      auto response = system.Execute(*request);
      execute = std::min(execute, NowNs() - t);
      if (!response.ok()) Die("probe Execute: " + response.status().ToString());

      t = NowNs();
      encoded = netsvc::EarthQubeService::QueryResponseToJson(*response);
      encode = std::min(encode, NowNs() - t);
    }
    s->round_trip.push_back(Us(rt));
    s->decode.push_back(Us(decode));
    s->execute.push_back(Us(execute));
    s->encode.push_back(Us(encode));
    s->bytes.push_back(static_cast<double>(encoded.size()));
    s->http_overhead.push_back(Us(rt) - Us(decode) - Us(execute) - Us(encode));

    std::shared_ptr<const index::CandidateSet> allowed;
    if (request->panel.has_value()) {
      const docstore::Filter filter = request->panel->ToFilter();
      docstore::QueryStats stats;
      const uint64_t t = NowNs();
      const auto ids = metadata->FindIds(
          filter, request->similarity ? 0 : request->panel->limit, &stats);
      s->filter.push_back(Us(NowNs() - t));
      s->examined += static_cast<double>(stats.docs_examined);
      s->filter_results += static_cast<double>(ids.size());
      if (op.sim.has_value()) {
        // The allowlist comes from the benchmark's own filter evaluation.
        std::vector<std::string> names;
        for (const RefPatch& p : target.ref->patches) {
          if (Matches(*op.panel, p)) names.push_back(p.name);
        }
        allowed = std::make_shared<const index::CandidateSet>(
            cbir.CandidatesFromNames(names));
      }
    }
    if (!op.sim.has_value()) continue;

    const SimSpec& sim = *op.sim;
    std::string exclude;
    BinaryCode code = upload_code;
    if (!sim.upload) {
      exclude = target.ref->patches[sim.subject].name;
      code = *cbir.CodeOf(exclude);
    }
    const uint64_t t = NowNs();
    if (allowed != nullptr) {
      if (sim.knn) {
        cbir.KnnByCodeRestricted(code, sim.k, *allowed, exclude);
      } else {
        cbir.RadiusByCodeRestricted(code, sim.radius, sim.limit, *allowed,
                                    exclude);
      }
    } else if (sim.knn) {
      cbir.KnnByCode(code, sim.k, exclude);
    } else {
      cbir.RadiusByCode(code, sim.radius, sim.limit, exclude);
    }
    s->search.push_back(Us(NowNs() - t));
    index::SearchStats stats;
    if (sim.knn) {
      cbir.hamming_index().KnnSearch(code, sim.k, &stats);
    } else {
      cbir.hamming_index().RadiusSearch(code, sim.radius, &stats);
    }
    s->candidates += static_cast<double>(stats.candidates);
    s->index_results += static_cast<double>(stats.results);

    if (op.panel.has_value()) continue;
    // Paged CBIR-only: what a cold first page asks of the index layer.
    std::vector<earthqube::CbirResult> page;
    const std::optional<uint32_t> radius =
        sim.knn ? std::nullopt : std::optional<uint32_t>(sim.radius);
    uint64_t best = UINT64_MAX;
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      page.clear();
      const uint64_t t0 = NowNs();
      auto stream = cbir.OpenStream(code, radius, sim.knn ? sim.k : sim.limit,
                                    nullptr, exclude);
      stream->Next(kPageSize + 1, &page);
      best = std::min(best, NowNs() - t0);
    }
    const double frontier = Us(best);
    s->frontier.push_back(frontier);
    s->cbir_frontier.push_back(frontier);
    s->cbir_execute.push_back(Us(execute));
    s->execute_beyond_frontier.push_back(Us(execute) - frontier);
  }
  // Leave nothing warm for the HTTP path.
  system.query_cache().Invalidate();
}

/// The own samples when they reach the layer, else the supplement's.
const std::vector<double>& Pick(const std::vector<double>& own,
                                const std::vector<double>& supplement) {
  return own.empty() ? supplement : own;
}

}  // namespace

ServiceCounters ReadCounters(const std::vector<uint16_t>& ports) {
  ServiceCounters c;
  for (uint16_t port : ports) {
    mj::Value stats, metrics;
    std::string error;
    const HttpResult s = HttpCall(port, "GET", "/api/v2/cache/stats", "");
    const HttpResult m = HttpCall(port, "GET", "/api/v2/metrics", "");
    if (!s.ok || !m.ok || !mj::Parse(s.body, &stats, &error) ||
        !mj::Parse(m.body, &metrics, &error)) {
      Die("cannot read service counters on port " + std::to_string(port));
    }
    const mj::Value* cache = stats.Get("response_cache");
    c.cache_hits += Field(cache, "hits");
    c.cache_misses += Field(cache, "misses");
    const mj::Value* exec = stats.Get("exec");
    c.submitted += Field(exec, "submitted");
    c.coalesced += Field(exec, "coalesced");
    c.flights += Field(exec, "flights");
    c.batched_flights += Field(exec, "batched_flights");
    c.resume_hits += Field(&metrics,
                           "agoraeo_engine_cursor_resume_total{result=\"hit\"}");
    c.resume_misses += Field(
        &metrics, "agoraeo_engine_cursor_resume_total{result=\"miss\"}");
    const mj::Value* queue =
        metrics.Get("agoraeo_engine_stage_ns{stage=\"queue_wait\"}");
    c.queue_wait_ns += Field(queue, "sum_ns");
    c.queue_wait_count += Field(queue, "count");
    const mj::Value* batch =
        metrics.Get("agoraeo_engine_stage_ns{stage=\"batch_wait\"}");
    c.batch_wait_ns += Field(batch, "sum_ns");
    c.batch_wait_count += Field(batch, "count");
  }
  return c;
}

void AddDelta(const ServiceCounters& a, const ServiceCounters& b,
              ServiceCounters* sum) {
  sum->cache_hits += b.cache_hits - a.cache_hits;
  sum->cache_misses += b.cache_misses - a.cache_misses;
  sum->resume_hits += b.resume_hits - a.resume_hits;
  sum->resume_misses += b.resume_misses - a.resume_misses;
  sum->queue_wait_ns += b.queue_wait_ns - a.queue_wait_ns;
  sum->queue_wait_count += b.queue_wait_count - a.queue_wait_count;
  sum->batch_wait_ns += b.batch_wait_ns - a.batch_wait_ns;
  sum->batch_wait_count += b.batch_wait_count - a.batch_wait_count;
  sum->submitted += b.submitted - a.submitted;
  sum->coalesced += b.coalesced - a.coalesced;
  sum->flights += b.flights - a.flights;
  sum->batched_flights += b.batched_flights - a.batched_flights;
}

void AddCounterMetrics(const ServiceCounters& a, const ServiceCounters& b,
                       MetricMap* out) {
  const double hits = b.cache_hits - a.cache_hits;
  (*out)["query_cache.hit_ratio"] = {
      Ratio(hits, hits + b.cache_misses - a.cache_misses), "ratio"};
  const double resumes = b.resume_hits - a.resume_hits;
  (*out)["ranked_access.resume_hit_ratio"] = {
      Ratio(resumes, resumes + b.resume_misses - a.resume_misses), "ratio"};
  (*out)["exec.queue_wait_us"] = {
      Ratio(b.queue_wait_ns - a.queue_wait_ns,
            b.queue_wait_count - a.queue_wait_count) / 1e3,
      "us"};
  (*out)["exec.batch_wait_us"] = {
      Ratio(b.batch_wait_ns - a.batch_wait_ns,
            b.batch_wait_count - a.batch_wait_count) / 1e3,
      "us"};
  (*out)["exec.coalesced_per_submit"] = {
      Ratio(b.coalesced - a.coalesced, b.submitted - a.submitted), "ratio"};
  (*out)["exec.batched_per_flight"] = {
      Ratio(b.batched_flights - a.batched_flights, b.flights - a.flights),
      "ratio"};
}

void ProbeMonolith(Monolith& m, const Target& target,
                   const std::vector<Op>& own,
                   const std::vector<Op>& supplement, MetricMap* out,
                   std::vector<std::string>* violations) {
  Samples mine, extra;
  ProbeOps(m, target, own, &mine);
  ProbeOps(m, target, supplement, &extra);

  std::vector<double> hash;
  for (const auto& patch : *target.uploads) {
    const uint64_t t = NowNs();
    if (!m.cbir().HashPatch(patch).ok()) Die("HashPatch failed");
    hash.push_back(Us(NowNs() - t));
  }

  (*out)["netsvc.round_trip_us"] = {Median(mine.round_trip), "us"};
  (*out)["json.decode_us"] = {Median(mine.decode), "us"};
  (*out)["json.encode_us"] = {Median(mine.encode), "us"};
  (*out)["json.response_bytes"] = {Median(mine.bytes), "bytes"};
  (*out)["earthqube.execute_us"] = {Median(mine.execute), "us"};
  (*out)["docstore.filter_us"] = {Median(Pick(mine.filter, extra.filter)),
                                  "us"};
  const Samples& docs = mine.filter.empty() ? extra : mine;
  (*out)["docstore.examined_per_result"] = {
      Ratio(docs.examined, docs.filter_results), "ratio"};
  (*out)["index.search_us"] = {Median(Pick(mine.search, extra.search)), "us"};
  const Samples& idx = mine.search.empty() ? extra : mine;
  (*out)["index.candidates_per_result"] = {
      Ratio(idx.candidates, idx.index_results), "ratio"};
  (*out)["index.frontier_open_us"] = {
      Median(Pick(mine.frontier, extra.frontier)), "us"};
  (*out)["milan.hash_patch_us"] = {Median(hash), "us"};

  // Bound 1: the in-process layers of a request cannot take longer than
  // the HTTP round trip that contains them.  Paired per request, median
  // over the requests.
  const double overhead = Median(mine.http_overhead);
  std::fprintf(stderr,
               "bound 1: median of round trip - (decode + execute + encode) "
               "= %.1f us over %zu requests\n",
               overhead, mine.http_overhead.size());
  if (overhead < 0) {
    violations->push_back("decode + execute + encode exceed the round trip "
                          "by a median " + std::to_string(-overhead) + " us");
  }
  // Bound 2: opening the frontier of a paged CBIR-only request is part
  // of executing it.
  const Samples& cb = mine.cbir_execute.empty() ? extra : mine;
  if (cb.cbir_execute.empty()) {
    violations->push_back("no paged CBIR-only request was probed");
  } else {
    const double beyond = Median(cb.execute_beyond_frontier);
    std::fprintf(stderr,
                 "bound 2: median of execute - frontier open = %.1f us over "
                 "%zu paged CBIR-only requests\n",
                 beyond, cb.execute_beyond_frontier.size());
    if (beyond < 0) {
      violations->push_back("frontier open exceeds execute by a median " +
                            std::to_string(-beyond) + " us");
    }
  }
}

void ProbeCluster(Cluster& c, const RefArchive& ref, const std::vector<Op>& ops,
                  MetricMap* out) {
  std::vector<double> coordinator_us, node_us, node_bytes;
  size_t taken = 0;
  for (const Op& op : ops) {
    if (taken >= kClusterProbeSamples) break;
    if (!Probeable(op) || op.kind == OpKind::kUpload) continue;
    ++taken;
    const std::string body = CloseBody(op.body_prefix);
    // A newer table epoch invalidates the coordinator's merged-ranking
    // cache; node caches are invalidated directly.
    cluster::SlotTable table = c.coordinator->table();
    table.set_epoch(table.epoch() + 1);
    c.coordinator->AttachTable(table);
    for (auto& system : c.systems) system->query_cache().Invalidate();
    uint64_t t = NowNs();
    auto merged = c.coordinator->Query(body);
    coordinator_us.push_back(Us(NowNs() - t));
    if (!merged.ok()) Die("coordinator probe: " + merged.status().ToString());

    // The request as the coordinator forwards it: by-code subject,
    // k+1 for a by-name k-NN, every limit and the paging stripped.
    auto doc = json::ParseObject(body);
    auto request = netsvc::EarthQubeService::QueryRequestFromJson(*doc);
    if (!request.ok()) Die("cluster probe request rejected");
    if (request->similarity.has_value()) {
      earthqube::SimilaritySpec& spec = *request->similarity;
      const size_t subject = ref.index_of.at(*spec.archive_name);
      spec.code = c.codes[subject];
      spec.archive_name.reset();
      if (spec.k.has_value()) *spec.k += 1;
      spec.limit = 0;
    }
    if (request->panel.has_value()) request->panel->limit = 0;
    request->page = 0;
    request->page_size = 0;
    auto forwarded = cluster::QueryRequestToJson(*request);
    if (!forwarded.ok()) Die("cannot serialise the forwarded request");
    const std::string forwarded_body = json::Serialize(*forwarded);
    for (size_t i = 0; i < c.systems.size(); ++i) {
      c.systems[i]->query_cache().Invalidate();
      t = NowNs();
      auto local = c.systems[i]->Execute(*request);
      node_us.push_back(Us(NowNs() - t));
      if (!local.ok()) Die("node Execute: " + local.status().ToString());
      c.systems[i]->query_cache().Invalidate();
      const HttpResult reply = HttpCall(c.nodes[i]->port(), "POST",
                                        "/api/v2/query", forwarded_body);
      if (!reply.ok || reply.status != 200) Die("node probe request failed");
      node_bytes.push_back(static_cast<double>(reply.body.size()));
    }
  }
  cluster::SlotTable table = c.coordinator->table();
  table.set_epoch(table.epoch() + 1);
  c.coordinator->AttachTable(table);
  for (auto& system : c.systems) system->query_cache().Invalidate();
  (*out)["cluster.coordinator_query_us"] = {Median(coordinator_us), "us"};
  (*out)["cluster.node_execute_us"] = {Median(node_us), "us"};
  (*out)["cluster.node_response_bytes"] = {Median(node_bytes), "bytes"};
}

}  // namespace e2e
