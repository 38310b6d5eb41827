// End-to-end EarthQube benchmark driver.
//
//   e2e_driver --workload explore|similar|cluster_ingest --seed N
//              --seconds S --trace 0|1 [--spool-dir DIR]
//
// Stands the stack up in this process, replays the workload's seeded
// request sequence over loopback HTTP for S seconds with closed-loop
// clients, checks every answer against the benchmark's own computation,
// and prints one JSON result object as the last line of stdout.  With
// --trace 1 it also times each module's public calls (the per-layer
// metrics) after the replay.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "layers.h"
#include "reference.h"
#include "replay.h"
#include "requests.h"
#include "stack.h"
#include "util.h"

namespace e2e {
namespace {

using namespace agoraeo;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spool_dir = ".bench_build/spool";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spool-dir") {
      args.spool_dir = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (args.workload != "explore" && args.workload != "similar" &&
      args.workload != "cluster_ingest") {
    Die("--workload must be explore, similar or cluster_ingest");
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

constexpr size_t kUploadPool = 8;
/// Operations per client sequence: a whole number of blocks of every
/// workload (25, 24 and 27 operations).
constexpr size_t kSequenceLength = 21600;
constexpr size_t kSimilarClients = 2;
/// peak_rss_mb is read once this many blocks of operations have completed
/// (or at the end of a slower replay): the set-up plus a fixed amount of
/// query work, so the figure does not grow with the run's throughput.
constexpr size_t kRssBlocks = 20;
/// Operations of the short cluster replay a monolith workload's traced
/// run makes to measure the cluster layers (within one round).
constexpr size_t kAuxClusterOps = 96;
static_assert(kSequenceLength % kClusterRoundOps == 0,
              "a cycled cluster sequence keeps its rounds aligned");

/// Upload rasters synthesised from patches among the first `pool`.
std::vector<bigearthnet::Patch> MakeUploads(const TrainedArchive& data,
                                            size_t pool, uint64_t seed) {
  Rand rng(seed ^ 0x5eed0f09ULL);
  std::vector<bigearthnet::Patch> out;
  for (size_t i = 0; i < kUploadPool; ++i) {
    out.push_back(data.generator->SynthesizePatch(
        data.archive.patches[rng.Below(pool)]));
  }
  return out;
}

void PrintFamilies(const ReplayResult& r) {
  double total_ms = 0;
  for (const auto& [name, f] : r.families) total_ms += f.total_ms;
  for (const auto& [name, f] : r.families) {
    std::fprintf(stderr,
                 "  family %-24s ops %6zu (%5.1f%%)  time %5.1f%%  mean %.3f ms\n",
                 name.c_str(), f.count,
                 100.0 * static_cast<double>(f.count) /
                     static_cast<double>(r.attempted),
                 100.0 * f.total_ms / total_ms,
                 f.total_ms / static_cast<double>(f.count));
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.10g", value.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void AddSetupMetrics(const SetupTimes& t, MetricMap* out) {
  (*out)["setup.archive_generate_s"] = {t.archive_generate_s, "s"};
  (*out)["setup.feature_extract_s"] = {t.feature_extract_s, "s"};
  (*out)["setup.milan_train_s"] = {t.milan_train_s, "s"};
  (*out)["setup.docstore_ingest_s"] = {t.docstore_ingest_s, "s"};
  (*out)["setup.index_build_s"] = {t.index_build_s, "s"};
  (*out)["setup.cluster_ingest_s"] = {t.cluster_ingest_s, "s"};
}

/// Ingest checks of a cluster replay: node counts after every batch, and
/// every round's ingested codes found at distance 0 on some node (checked
/// at the end of each round, and here for the last one).
bool CheckIngest(const Cluster& c, const ReplayResult& r, std::string* why) {
  for (const auto& [expected, sum] : r.ingest_counts) {
    if (expected != sum) {
      *why = "nodes hold " + std::to_string(sum) + " images, expected " +
             std::to_string(expected);
      return false;
    }
  }
  if (!c.problems.empty()) {
    *why = c.problems.front();
    return false;
  }
  return c.IngestedFound(why);
}

struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  void Require(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

/// Verifies a replay's answers and runs the checker self-test.
void VerifyReplay(const Target& target,
                  const std::vector<std::vector<Op>>& sequences,
                  const ReplayResult& replay, Outcome* outcome) {
  const VerifyResult v = VerifySpools(target, sequences, replay);
  std::fprintf(stderr, "verified %zu answers, %zu mismatches\n", v.checked,
               v.mismatches);
  std::fprintf(stderr,
               "inputs: %zu distinct similarity requests, %.1f MiB of answers "
               "(response cache capacity 64 MiB)\n",
               v.distinct_similarity,
               static_cast<double>(v.distinct_similarity_bytes) / 1048576.0);
  for (const std::string& reason : v.reasons) {
    outcome->Require(false, "mismatch: " + reason);
  }
  outcome->Require(v.mismatches == 0 && v.checked > 0, "answers verified");
  std::string why;
  outcome->Require(SelfTest(*target.ref, v.samples, &why), why);
}

/// How a run's end-to-end figures are taken.  Each client's operations
/// are cut into windows of one request block; every block of a sequence
/// has the same make-up, so every window holds the same mix.  On
/// `cluster_ingest` a window's position in its round also fixes the
/// archive size it meets, so only whole rounds count and every position
/// is pooled equally often.
///
/// The host is a shared virtual machine: the hypervisor's CPU steal comes
/// and goes and slows every window it overlaps, by up to 2x.  A window's
/// contention is the share of the machine's busy CPU time that was
/// stolen (/proc/stat).  At each position the figures pool the windows
/// that ran undisturbed, and at least the kQuietShare of windows with
/// the least contention: throughput is their operations over their
/// duration, p50 and p90 are over their latencies, CPU per operation is
/// the process CPU spent during them over the operations completed
/// during them.  A change to the program moves every window alike.
constexpr double kQuietShare = 0.25;
/// Contention at or below which a window counts as undisturbed.
constexpr double kUndisturbed = 0.05;

struct Window {
  double ops = 0, seconds = 0, cpu_ns = 0, ops_completed = 0, contention = 0;
  size_t position = 0;
  std::vector<double> latency_ms;
};

std::vector<Window> Windows(const ReplayResult& r, size_t block_ops,
                            size_t round_blocks) {
  // Host ticks at time t, interpolated between the samples.
  const auto at = [&](uint64_t t, auto get) {
    const auto& s = r.samples;
    if (s.empty()) return 0.0;
    if (t <= s.front().t_ns) return get(s.front());
    for (size_t i = 1; i < s.size(); ++i) {
      if (t <= s[i].t_ns) {
        const double f = static_cast<double>(t - s[i - 1].t_ns) /
                         static_cast<double>(s[i].t_ns - s[i - 1].t_ns);
        return get(s[i - 1]) + f * (get(s[i]) - get(s[i - 1]));
      }
    }
    return get(s.back());
  };
  using Sample = ReplayResult::Sample;
  const auto steal = [](const Sample& s) {
    return static_cast<double>(s.host.steal);
  };
  const auto busy = [](const Sample& s) {
    return static_cast<double>(s.host.busy);
  };
  std::vector<uint64_t> all_done;
  for (const auto& client : r.timings) {
    for (const OpTime& op : client) all_done.push_back(op.t1);
  }
  std::sort(all_done.begin(), all_done.end());
  // Only whole rounds count, unless no client finished one.
  size_t rounds = 0;
  for (const auto& client : r.timings) {
    rounds += client.size() / (block_ops * round_blocks);
  }
  if (rounds == 0) round_blocks = 1;
  std::vector<Window> out;
  for (const auto& client : r.timings) {
    const size_t whole = client.size() / (block_ops * round_blocks);
    for (size_t w = 0; w < whole * round_blocks; ++w) {
      Window win;
      win.position = w % round_blocks;
      for (size_t i = w * block_ops; i < (w + 1) * block_ops; ++i) {
        win.latency_ms.push_back(
            static_cast<double>(client[i].t1 - client[i].t0) / 1e6);
      }
      const OpTime& first = client[w * block_ops];
      const OpTime& last = client[(w + 1) * block_ops - 1];
      win.ops = static_cast<double>(block_ops);
      win.seconds = static_cast<double>(last.t1 - first.t0) / 1e9;
      win.cpu_ns = static_cast<double>(last.cpu1 - first.cpu0);
      win.ops_completed = static_cast<double>(
          std::upper_bound(all_done.begin(), all_done.end(), last.t1) -
          std::upper_bound(all_done.begin(), all_done.end(), first.t0));
      const double ticks = at(last.t1, busy) - at(first.t0, busy);
      win.contention = ticks > 0 ? (at(last.t1, steal) - at(first.t0, steal)) /
                                       ticks
                                 : 0.0;
      out.push_back(std::move(win));
    }
  }
  if (out.empty()) {
    // Too slow for one whole block: the run as a single window.
    Window win;
    for (const auto& client : r.timings) {
      for (const OpTime& op : client) {
        win.latency_ms.push_back(static_cast<double>(op.t1 - op.t0) / 1e6);
      }
    }
    win.ops = static_cast<double>(r.attempted) /
              static_cast<double>(std::max<size_t>(1, r.timings.size()));
    win.seconds = r.wall_s;
    win.cpu_ns = static_cast<double>(r.cpu_ns);
    win.ops_completed = static_cast<double>(r.attempted);
    out.push_back(std::move(win));
  }
  return out;
}

struct Figures {
  double throughput = 0, p50 = 0, p90 = 0, cpu_ms_per_op = 0;
  size_t windows = 0, pooled = 0;
  double contention_p50 = 0, pooled_contention_max = 0;
};

/// The pooled figures: at every round position, the windows that ran
/// undisturbed at every position, and at least the quietest `share`.
Figures QuietFigures(const ReplayResult& r, size_t block_ops,
                     size_t round_blocks, double share = kQuietShare) {
  const std::vector<Window> windows = Windows(r, block_ops, round_blocks);
  size_t positions = 0;
  for (const Window& w : windows) positions = std::max(positions, w.position + 1);
  std::vector<std::vector<const Window*>> by_position(positions);
  for (const Window& w : windows) by_position[w.position].push_back(&w);
  size_t per_position = SIZE_MAX, undisturbed = SIZE_MAX;
  for (auto& group : by_position) {
    std::stable_sort(group.begin(), group.end(),
                     [](const Window* a, const Window* b) {
                       return a->contention < b->contention;
                     });
    per_position = std::min(per_position, group.size());
    undisturbed = std::min<size_t>(
        undisturbed,
        std::count_if(group.begin(), group.end(), [](const Window* w) {
          return w->contention <= kUndisturbed;
        }));
  }
  // Every position pools the same number of windows: its quietest
  // `share`, or more when every position ran that many undisturbed.
  const size_t take = std::min(
      per_position,
      std::max({size_t{1},
                static_cast<size_t>(share * static_cast<double>(per_position)),
                undisturbed}));
  Figures f;
  f.windows = windows.size();
  std::vector<double> contention, latency;
  for (const Window& w : windows) contention.push_back(w.contention);
  double ops = 0, seconds = 0, cpu_ns = 0, completed = 0;
  for (const auto& group : by_position) {
    for (size_t i = 0; i < take; ++i) {
      const Window& w = *group[i];
      ops += w.ops;
      seconds += w.seconds;
      cpu_ns += w.cpu_ns;
      completed += w.ops_completed;
      latency.insert(latency.end(), w.latency_ms.begin(), w.latency_ms.end());
      f.pooled_contention_max = std::max(f.pooled_contention_max, w.contention);
      ++f.pooled;
    }
  }
  // Closed loop: each client contributes its own rate; the system rate
  // is that times the number of clients.
  f.throughput = ops / seconds * static_cast<double>(r.timings.size());
  f.p50 = Quantile(latency, 0.5);
  f.p90 = Quantile(latency, 0.9);
  f.cpu_ms_per_op = cpu_ns / 1e6 / std::max(1.0, completed);
  f.contention_p50 = Median(contention);
  return f;
}

MetricMap EndToEnd(double setup_s, const ReplayResult& r, size_t block_ops,
                   size_t round_blocks, double peak_mb) {
  const Figures f = QuietFigures(r, block_ops, round_blocks);
  MetricMap m;
  m["setup_s"] = {setup_s, "s"};
  m["throughput_ops_s"] = {f.throughput, "ops/s"};
  m["latency_p50_ms"] = {f.p50, "ms"};
  m["latency_p90_ms"] = {f.p90, "ms"};
  m["cpu_ms_per_op"] = {f.cpu_ms_per_op, "ms"};
  m["peak_rss_mb"] = {peak_mb, "MB"};
  return m;
}

void ReportReplay(const char* what, const ReplayResult& r, size_t block_ops,
                  size_t round_blocks) {
  std::fprintf(stderr, "%s: %zu ops (%zu failed) in %.2f s = %.1f ops/s\n",
               what, r.attempted, r.failed, r.wall_s,
               static_cast<double>(r.attempted - r.failed) / r.wall_s);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "  failure: %s\n", f.c_str());
  }
  PrintFamilies(r);
  const Figures f = QuietFigures(r, block_ops, round_blocks);
  std::fprintf(stderr,
               "  %zu windows, median contention %.1f%%; pooled the quietest "
               "%zu (contention up to %.1f%%): %.1f ops/s, p50 %.3f ms, p90 "
               "%.3f ms, %.3f cpu ms/op\n",
               f.windows, 100.0 * f.contention_p50, f.pooled,
               100.0 * f.pooled_contention_max, f.throughput, f.p50, f.p90,
               f.cpu_ms_per_op);
  const Figures all = QuietFigures(r, block_ops, round_blocks, 1.0);
  std::fprintf(stderr,
               "  all windows: %.1f ops/s, p50 %.3f ms, p90 %.3f ms, %.3f cpu "
               "ms/op\n",
               all.throughput, all.p50, all.p90, all.cpu_ms_per_op);
}

/// The counters a cluster replay leaves on the nodes and on the
/// coordinator's result cache, summed over its rounds: each round serves
/// from new nodes and a new coordinator, so each is read at its start
/// and its end.
class RoundCounters {
 public:
  explicit RoundCounters(Cluster* c) : c_(c) {
    Start();
    c_->on_round_end = [this] { Close(); };
    c_->on_round_start = [this] { Start(); };
  }
  ~RoundCounters() {
    c_->on_round_end = nullptr;
    c_->on_round_start = nullptr;
  }
  /// Adds the current round's counters; call once after the replay.
  void Close() {
    AddDelta(start_, ReadCounters(c_->node_ports()), &nodes);
    const cache::CacheStats now = c_->coordinator->result_cache_stats();
    result_hits += static_cast<double>(now.hits - start_cache_.hits);
    result_misses += static_cast<double>(now.misses - start_cache_.misses);
  }
  void AddMetrics(MetricMap* layers) const {
    (*layers)["cluster.result_cache_hit_ratio"] = {
        result_hits + result_misses > 0
            ? result_hits / (result_hits + result_misses)
            : 0.0,
        "ratio"};
  }

  ServiceCounters nodes;
  double result_hits = 0, result_misses = 0;

 private:
  void Start() {
    start_ = ReadCounters(c_->node_ports());
    start_cache_ = c_->coordinator->result_cache_stats();
  }

  Cluster* c_;
  ServiceCounters start_;
  cache::CacheStats start_cache_;
};

void AddIngestMetric(const ReplayResult& r, MetricMap* layers) {
  const FamilyStats& ingest = r.families.at("ingest_batch");
  (*layers)["cluster.ingest_batch_ms"] = {
      ingest.total_ms / static_cast<double>(ingest.count), "ms"};
}

/// A short cluster replay plus the cluster probes, for the traced run of
/// a monolith workload.
void AuxCluster(const Args& args, const std::string& spool_dir,
                MetricMap* layers, SetupTimes* times, Outcome* outcome) {
  SetupTimes aux;
  auto c = BuildCluster(kClusterBase, &aux);
  times->cluster_ingest_s = aux.cluster_ingest_s;
  const RefArchive ref = BuildReference(c->data.archive, c->codes);
  GenContext ctx{&ref, kClusterBase, 0};
  const std::vector<std::vector<Op>> seqs = {
      GenerateCluster(args.seed * 7 + 3, ctx, kAuxClusterOps)};
  Target target;
  target.ref = &ref;
  target.cluster = c.get();
  target.spool_dir = spool_dir;
  RoundCounters counters(c.get());
  const ReplayResult r = Replay(target, seqs, 0, kAuxClusterOps);
  counters.Close();
  ReportReplay("auxiliary cluster replay", r, kClusterBlockOps,
               kClusterRoundBlocks);
  const VerifyResult v = VerifySpools(target, seqs, r);
  outcome->Require(v.mismatches == 0 && v.checked > 0,
                   "auxiliary cluster answers verified");
  counters.AddMetrics(layers);
  AddIngestMetric(r, layers);
  ProbeCluster(*c, ref, seqs[0], layers);
}

/// Prints the code distribution the similarity requests meet: quantiles
/// over 256 random subjects of the archive images within radius 4 and 8.
void DescribeCodes(const RefArchive& ref, size_t visible) {
  Rand rng(7);
  std::vector<double> r4, r8;
  for (int s = 0; s < 256; ++s) {
    const uint64_t* q = ref.code(rng.Below(visible));
    size_t n4 = 0, n8 = 0;
    for (size_t i = 0; i < visible; ++i) {
      const int d = Distance(ref.code(i), q, ref.words);
      n4 += d <= 4;
      n8 += d <= 8;
    }
    r4.push_back(static_cast<double>(n4));
    r8.push_back(static_cast<double>(n8));
  }
  std::fprintf(stderr,
               "inputs: %zu codes; hits within radius 4 p10/p50/p90 "
               "%.0f/%.0f/%.0f, within radius 8 %.0f/%.0f/%.0f\n",
               visible, Quantile(r4, 0.1), Quantile(r4, 0.5), Quantile(r4, 0.9),
               Quantile(r8, 0.1), Quantile(r8, 0.5), Quantile(r8, 0.9));
}

/// The process's start: set-up is timed from here.
struct Start {
  uint64_t ns = NowNs();
  HostTicks host = ReadHostTicks();
};

/// Seconds since `start`; also prints the host contention during them,
/// which explains a slow set-up.
double SetupSeconds(const Start& start) {
  const double s = static_cast<double>(NowNs() - start.ns) / 1e9;
  const HostTicks now = ReadHostTicks();
  const double ticks = static_cast<double>(now.busy - start.host.busy);
  std::fprintf(stderr, "setup %.3f s (host contention %.1f%%)\n", s,
               ticks > 0 ? 100.0 * static_cast<double>(now.steal -
                                                       start.host.steal) /
                               ticks
                         : 0.0);
  return s;
}

int RunMonolith(const Args& args, const Start& start) {
  SetupTimes times;
  auto m = BuildMonolith(kMonolithPatches, &times);
  const double setup_s = SetupSeconds(start);

  std::vector<BinaryCode> codes;
  codes.reserve(m->data.archive.patches.size());
  for (const auto& p : m->data.archive.patches) {
    codes.push_back(*m->cbir().CodeOf(p.name));
  }
  const RefArchive ref = BuildReference(m->data.archive, codes);
  const std::vector<bigearthnet::Patch> uploads =
      MakeUploads(m->data, ref.patches.size(), args.seed);
  GenContext ctx{&ref, ref.patches.size(), uploads.size()};
  std::vector<std::vector<Op>> seqs;
  if (args.workload == "explore") {
    seqs.push_back(GenerateExplore(args.seed, ctx, kSequenceLength));
  } else {
    for (size_t c = 0; c < kSimilarClients; ++c) {
      seqs.push_back(GenerateSimilar(args.seed * 1000 + c, ctx,
                                     kSequenceLength));
    }
  }
  std::mutex hash_mu;
  Target target;
  target.port = m->port;
  target.ref = &ref;
  target.hasher = &m->cbir();
  target.hash_mu = &hash_mu;
  target.uploads = &uploads;
  target.spool_dir = args.spool_dir;

  MetricMap layers;
  ServiceCounters before;
  if (args.trace) before = ReadCounters({m->port});
  const size_t block_ops =
      args.workload == "explore" ? kExploreBlockOps : kSimilarBlockOps;
  const ReplayResult replay = Replay(target, seqs, args.seconds, 0,
                                     kRssBlocks * block_ops * seqs.size());
  const double peak_mb = replay.peak_rss_mb;
  ReportReplay("replay", replay, block_ops, 1);

  Outcome outcome;
  if (args.trace) {
    AddCounterMetrics(before, ReadCounters({m->port}), &layers);
    // Taken as throughput_ops_s is, so the two compare directly.
    layers["trace.replay_ops_s"] = {
        QuietFigures(replay, block_ops, 1).throughput, "ops/s"};
    // The other monolith workload's requests reach the layers this one
    // does not (the index on explore, the docstore panel path on similar).
    const std::vector<Op> supplement =
        args.workload == "explore"
            ? GenerateSimilar(args.seed * 1000 + 99, ctx, 400)
            : GenerateExplore(args.seed * 1000 + 99, ctx, 400);
    std::vector<std::string> violations;
    ProbeMonolith(*m, target, seqs[0], supplement, &layers, &violations);
    for (const std::string& v : violations) outcome.Require(false, v);
    AuxCluster(args, args.spool_dir, &layers, &times, &outcome);
    AddSetupMetrics(times, &layers);
  }
  VerifyReplay(target, seqs, replay, &outcome);
  DescribeCodes(ref, ref.patches.size());
  for (const std::string& p : outcome.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  PrintResult(outcome.correct, replay.attempted, replay.failed,
              args.trace ? layers
                         : EndToEnd(setup_s, replay, block_ops, 1, peak_mb));
  return 0;
}

int RunCluster(const Args& args, const Start& start) {
  SetupTimes times;
  auto c = BuildCluster(kClusterBase, &times);
  const double setup_s = SetupSeconds(start);

  const RefArchive ref = BuildReference(c->data.archive, c->codes);
  GenContext ctx{&ref, kClusterBase, 0};
  const std::vector<std::vector<Op>> seqs = {
      GenerateCluster(args.seed, ctx, kSequenceLength)};
  Target target;
  target.ref = &ref;
  target.cluster = c.get();
  target.spool_dir = args.spool_dir;

  MetricMap layers;
  std::optional<RoundCounters> counters;
  if (args.trace) counters.emplace(c.get());
  const ReplayResult replay =
      Replay(target, seqs, args.seconds, 0, kRssBlocks * kClusterBlockOps);
  const double peak_mb = replay.peak_rss_mb;
  ReportReplay("replay", replay, kClusterBlockOps, kClusterRoundBlocks);
  std::fprintf(stderr, "  %zu rounds of %zu blocks; %.2f s between rounds\n",
               c->rounds, kClusterRoundBlocks, c->round_change_s);

  Outcome outcome;
  std::string why;
  outcome.Require(CheckIngest(*c, replay, &why), why);
  if (replay.families.count("ingest_batch") == 0) {
    Die("the replay ingested no batch");
  }
  if (args.trace) {
    counters->Close();
    AddCounterMetrics(ServiceCounters{}, counters->nodes, &layers);
    counters->AddMetrics(&layers);
    counters.reset();
    AddIngestMetric(replay, &layers);
    layers["trace.replay_ops_s"] = {
        QuietFigures(replay, kClusterBlockOps, kClusterRoundBlocks).throughput,
        "ops/s"};
    ProbeCluster(*c, ref, seqs[0], &layers);

    // Monolith layers: a monolith over the cluster's own base archive and
    // model, probed with this workload's requests (uploads and the panel
    // path of the supplement fill what the cluster mix lacks).
    SetupTimes aux;
    const std::vector<bigearthnet::Patch> uploads =
        MakeUploads(c->data, kClusterBase, args.seed);
    auto m = ServeMonolith(CopyBase(*c, args.spool_dir + "/model.bin"), &aux);
    times.docstore_ingest_s = aux.docstore_ingest_s;
    times.index_build_s = aux.index_build_s;
    std::mutex hash_mu;
    Target mono = target;
    mono.port = m->port;
    mono.cluster = nullptr;
    mono.hasher = &m->cbir();
    mono.hash_mu = &hash_mu;
    mono.uploads = &uploads;
    GenContext mctx{&ref, kClusterBase, uploads.size()};
    std::vector<std::string> violations;
    ProbeMonolith(*m, mono, seqs[0],
                  GenerateSimilar(args.seed * 1000 + 99, mctx, 400), &layers,
                  &violations);
    for (const std::string& v : violations) outcome.Require(false, v);
    AddSetupMetrics(times, &layers);
  }
  VerifyReplay(target, seqs, replay, &outcome);
  DescribeCodes(ref, c->num_visible());
  for (const std::string& p : outcome.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  PrintResult(outcome.correct, replay.attempted, replay.failed,
              args.trace ? layers
                         : EndToEnd(setup_s, replay, kClusterBlockOps,
                                    kClusterRoundBlocks, peak_mb));
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Start start;
  const e2e::Args args = e2e::ParseArgs(argc, argv);
  agoraeo::SetLogLevel(agoraeo::LogLevel::kWarning);
  return args.workload == "cluster_ingest" ? e2e::RunCluster(args, start)
                                           : e2e::RunMonolith(args, start);
}
