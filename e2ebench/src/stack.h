// Stands up the systems under test in this process: the monolith
// (EarthQube + 4-way sharded CBIR service behind EarthQubeService on
// loopback HTTP) and the cluster (three ClusterNodes behind a
// Coordinator on its own loopback front door).
#ifndef E2EBENCH_STACK_H_
#define E2EBENCH_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "cluster/cluster_node.h"
#include "cluster/coordinator.h"
#include "common/binary_code.h"
#include "earthqube/cbir_service.h"
#include "earthqube/earthqube.h"
#include "milan/milan_model.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/server.h"

namespace e2e {

/// Inputs that do not depend on --seed: the archive and the trained
/// model are fixed so that run-to-run differences come from the request
/// sequence alone.
inline constexpr uint64_t kArchiveSeed = 2022;
inline constexpr size_t kMonolithPatches = 100000;
inline constexpr size_t kMonolithShards = 4;
inline constexpr size_t kClusterBase = 20000;
inline constexpr size_t kClusterBatch = 64;
/// Ingest batches of one cluster round.  A round starts from a cluster
/// freshly built over the base archive and routes these batches; the
/// held-back patches are exactly one round's worth, so every round
/// passes through the same archive sizes however fast it runs.
inline constexpr size_t kClusterRoundBatches = 24;
inline constexpr size_t kClusterHoldback = kClusterRoundBatches * kClusterBatch;
inline constexpr size_t kClusterNodes = 3;
inline constexpr size_t kServerWorkers = 4;

/// Wall time of each set-up step, as the per-layer `setup.*` metrics.
struct SetupTimes {
  double archive_generate_s = 0;
  double feature_extract_s = 0;
  double milan_train_s = 0;
  double docstore_ingest_s = 0;
  double index_build_s = 0;
  double cluster_ingest_s = 0;
};

/// The archive, its features and a MiLaN model trained on the first
/// `num_train` patches.
struct TrainedArchive {
  std::unique_ptr<agoraeo::bigearthnet::ArchiveGenerator> generator;
  agoraeo::bigearthnet::Archive archive;
  std::unique_ptr<agoraeo::bigearthnet::FeatureExtractor> extractor;
  agoraeo::Tensor features;
  std::unique_ptr<agoraeo::milan::MilanModel> model;
};

TrainedArchive GenerateAndTrain(size_t num_patches, size_t num_train,
                                SetupTimes* times);

struct Monolith {
  TrainedArchive data;
  std::unique_ptr<agoraeo::earthqube::EarthQube> system;
  std::unique_ptr<agoraeo::netsvc::EarthQubeService> service;
  std::unique_ptr<agoraeo::netsvc::HttpServer> server;
  uint16_t port = 0;

  agoraeo::earthqube::CbirService& cbir() const { return *system->cbir(); }
  ~Monolith();
};

/// Builds the monolith over `num_patches` patches: generate, extract,
/// train, ingest, index, serve.
std::unique_ptr<Monolith> BuildMonolith(size_t num_patches, SetupTimes* times);

/// Ingests, indexes and serves an already trained archive.
std::unique_ptr<Monolith> ServeMonolith(TrainedArchive data,
                                        SetupTimes* times);

struct Cluster {
  TrainedArchive data;  ///< base patches first, then the held-back ones
  /// A CBIR service holding the trained model and no images; the nodes
  /// index precomputed codes and never run the model.
  std::unique_ptr<agoraeo::earthqube::CbirService> encoder;
  std::vector<agoraeo::BinaryCode> codes;  ///< one per archive patch
  size_t num_base = 0;

  // The serving instance of the current round.
  size_t batches_ingested = 0;
  std::vector<std::unique_ptr<agoraeo::earthqube::EarthQube>> systems;
  std::vector<std::unique_ptr<agoraeo::cluster::ClusterNode>> nodes;
  std::unique_ptr<agoraeo::cluster::Coordinator> coordinator;
  std::unique_ptr<agoraeo::netsvc::HttpServer> front;
  uint16_t port = 0;

  /// Called at the end of a round, before its instance is torn down,
  /// and at the start of the next, once the new instance serves.
  std::function<void()> on_round_end, on_round_start;
  /// Failed checks of finished rounds' ingested patches.
  std::vector<std::string> problems;
  size_t rounds = 1;          ///< rounds started
  double round_change_s = 0;  ///< wall time spent between rounds

  /// Patches visible to queries: the base plus every ingested batch.
  size_t num_visible() const {
    return num_base + batches_ingested * kClusterBatch;
  }
  size_t batches_available() const {
    return (data.archive.patches.size() - num_base) / kClusterBatch;
  }
  std::vector<uint16_t> node_ports() const;
  /// Routes the next held-back batch through Coordinator::IngestArchive.
  agoraeo::Status IngestNextBatch();
  /// Whether every patch ingested this round is found at distance 0 on
  /// some node.
  bool IngestedFound(std::string* why) const;
  /// Ends the round: checks its ingested patches, tears the nodes and
  /// the coordinator down and serves the base archive again from new
  /// ones (on new ports).
  void NextRound();
  /// Starts the nodes and the coordinator and routes the base archive.
  void Serve(SetupTimes* times);
  void Teardown();
  ~Cluster();
};

/// Builds the cluster: generate `num_base + kClusterHoldback` patches,
/// train on the base, hash everything, start the nodes and the
/// coordinator, and route the base archive.
std::unique_ptr<Cluster> BuildCluster(size_t num_base, SetupTimes* times);

/// The base archive of `c`, its feature rows and a copy of its trained
/// model (passed through the file `model_path`), ready to be served as a
/// monolith.  Nothing is generated or trained again.
TrainedArchive CopyBase(const Cluster& c, const std::string& model_path);

/// The MiLaN architecture every stack uses.
agoraeo::milan::MilanConfig ModelConfig();

}  // namespace e2e

#endif  // E2EBENCH_STACK_H_
