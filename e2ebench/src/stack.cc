#include "stack.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>

#include "cluster/slot_table.h"
#include "milan/trainer.h"
#include "milan/triplet_sampler.h"
#include "util.h"

namespace e2e {

using namespace agoraeo;

namespace {

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

}  // namespace

milan::MilanConfig ModelConfig() {
  milan::MilanConfig config;
  config.feature_dim = bigearthnet::kFeatureDim;
  config.hidden1 = 128;
  config.hidden2 = 64;
  config.hash_bits = 64;
  config.dropout = 0.0f;
  return config;
}

TrainedArchive GenerateAndTrain(size_t num_patches, size_t num_train,
                                SetupTimes* times) {
  TrainedArchive out;
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = num_patches;
  aconfig.seed = kArchiveSeed;
  uint64_t t = NowNs();
  out.generator = std::make_unique<bigearthnet::ArchiveGenerator>(aconfig);
  auto archive = out.generator->Generate();
  Check(archive.status(), "archive generation");
  out.archive = std::move(archive).value();
  times->archive_generate_s = SecondsSince(t);

  t = NowNs();
  out.extractor = std::make_unique<bigearthnet::FeatureExtractor>();
  out.features = out.extractor->ExtractArchive(out.archive, *out.generator, 4);
  times->feature_extract_s = SecondsSince(t);

  t = NowNs();
  out.model = std::make_unique<milan::MilanModel>(ModelConfig());
  std::vector<bigearthnet::LabelSet> labels;
  labels.reserve(num_train);
  for (size_t i = 0; i < num_train; ++i) {
    labels.push_back(out.archive.patches[i].labels);
  }
  milan::TripletSampler sampler(std::move(labels));
  milan::TrainConfig tconfig;
  tconfig.epochs = 6;
  tconfig.batches_per_epoch = 25;
  milan::Trainer trainer(out.model.get(), &out.features, &sampler, tconfig);
  Check(trainer.Train().status(), "MiLaN training");
  times->milan_train_s = SecondsSince(t);
  return out;
}

Monolith::~Monolith() {
  if (server != nullptr) server->Stop();
  server.reset();
  service.reset();
  system.reset();
}

std::unique_ptr<Monolith> BuildMonolith(size_t num_patches,
                                        SetupTimes* times) {
  return ServeMonolith(GenerateAndTrain(num_patches, num_patches, times),
                       times);
}

std::unique_ptr<Monolith> ServeMonolith(TrainedArchive data,
                                        SetupTimes* times) {
  auto m = std::make_unique<Monolith>();
  m->data = std::move(data);
  const bigearthnet::Archive& archive = m->data.archive;

  m->system = std::make_unique<earthqube::EarthQube>();
  uint64_t t = NowNs();
  Check(m->system->IngestArchive(archive), "docstore ingest");
  times->docstore_ingest_s = SecondsSince(t);

  earthqube::CbirConfig cconfig;
  cconfig.num_shards = kMonolithShards;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::move(m->data.model), m->data.extractor.get(), cconfig);
  std::vector<std::string> names;
  names.reserve(archive.patches.size());
  for (const auto& p : archive.patches) names.push_back(p.name);
  t = NowNs();
  Check(cbir->AddImages(names, m->data.features), "index build");
  times->index_build_s = SecondsSince(t);
  m->system->AttachCbir(std::move(cbir));

  m->server = std::make_unique<netsvc::HttpServer>(kServerWorkers);
  m->service = std::make_unique<netsvc::EarthQubeService>(m->system.get());
  m->service->RegisterRoutes(m->server.get());
  Check(m->server->Start(0), "HTTP server start");
  m->port = m->server->port();
  return m;
}

Cluster::~Cluster() { Teardown(); }

void Cluster::Teardown() {
  if (front != nullptr) front->Stop();
  front.reset();
  coordinator.reset();
  for (auto& node : nodes) node->Stop();
  nodes.clear();
  systems.clear();
  batches_ingested = 0;
}

std::vector<uint16_t> Cluster::node_ports() const {
  std::vector<uint16_t> out;
  for (const auto& node : nodes) out.push_back(node->port());
  return out;
}

Status Cluster::IngestNextBatch() {
  if (batches_ingested >= batches_available()) {
    return Status::FailedPrecondition("held-back patches exhausted");
  }
  const size_t begin = num_base + batches_ingested * kClusterBatch;
  bigearthnet::Archive batch;
  batch.config = data.archive.config;
  batch.patches.assign(data.archive.patches.begin() + begin,
                       data.archive.patches.begin() + begin + kClusterBatch);
  std::vector<BinaryCode> batch_codes(codes.begin() + begin,
                                      codes.begin() + begin + kClusterBatch);
  AGORAEO_RETURN_IF_ERROR(coordinator->IngestArchive(batch, batch_codes));
  ++batches_ingested;
  return Status::OK();
}

bool Cluster::IngestedFound(std::string* why) const {
  for (size_t i = num_base; i < num_visible(); ++i) {
    const std::string& name = data.archive.patches[i].name;
    bool found = false;
    for (const auto& system : systems) {
      for (const auto& hit : system->cbir()->RadiusByCode(codes[i], 0)) {
        found = found || hit.patch_name == name;
      }
    }
    if (!found) {
      *why = "ingested " + name + " not found at distance 0";
      return false;
    }
  }
  return true;
}

void Cluster::NextRound() {
  const uint64_t t = NowNs();
  if (on_round_end) on_round_end();
  std::string why;
  if (!IngestedFound(&why)) problems.push_back(why);
  Teardown();
  // Hand the torn-down round's freed memory back, so the peak RSS of
  // later rounds does not depend on how the allocator reuses it.
  malloc_trim(0);
  SetupTimes ignored;
  Serve(&ignored);
  if (on_round_start) on_round_start();
  ++rounds;
  round_change_s += SecondsSince(t);
}

void Cluster::Serve(SetupTimes* times) {
  std::vector<cluster::NodeAddress> addresses;
  for (size_t i = 0; i < kClusterNodes; ++i) {
    systems.push_back(std::make_unique<earthqube::EarthQube>());
    // Codes arrive precomputed, so each node's model is an untrained
    // shell of the same architecture.
    systems.back()->AttachCbir(std::make_unique<earthqube::CbirService>(
        std::make_unique<milan::MilanModel>(ModelConfig()),
        data.extractor.get()));
    cluster::ClusterNode::Options options;
    options.id = "node-" + std::to_string(i + 1);
    nodes.push_back(std::make_unique<cluster::ClusterNode>(
        systems.back().get(), options));
    Check(nodes.back()->Start(0), "cluster node start");
    addresses.push_back(nodes.back()->address());
  }
  const cluster::SlotTable table(addresses, cluster::kDefaultNumSlots);
  for (auto& node : nodes) node->SetTable(table);
  coordinator = std::make_unique<cluster::Coordinator>();
  coordinator->AttachTable(table);

  bigearthnet::Archive base;
  base.config = data.archive.config;
  base.patches.assign(data.archive.patches.begin(),
                      data.archive.patches.begin() + num_base);
  std::vector<BinaryCode> base_codes(codes.begin(), codes.begin() + num_base);
  const uint64_t t = NowNs();
  Check(coordinator->IngestArchive(base, base_codes), "routed ingest");
  times->cluster_ingest_s = SecondsSince(t);

  front = std::make_unique<netsvc::HttpServer>(kServerWorkers);
  coordinator->RegisterRoutes(front.get());
  Check(front->Start(0), "coordinator front door start");
  port = front->port();
}

std::unique_ptr<Cluster> BuildCluster(size_t num_base, SetupTimes* times) {
  auto c = std::make_unique<Cluster>();
  c->num_base = num_base;
  c->data = GenerateAndTrain(num_base + kClusterHoldback, num_base, times);
  c->codes = c->data.model->HashBatch(c->data.features);
  c->encoder = std::make_unique<earthqube::CbirService>(
      std::move(c->data.model), c->data.extractor.get());
  c->Serve(times);
  return c;
}

TrainedArchive CopyBase(const Cluster& c, const std::string& model_path) {
  TrainedArchive out;
  const size_t n = c.num_base;
  out.archive.config = c.data.archive.config;
  out.archive.patches.assign(c.data.archive.patches.begin(),
                             c.data.archive.patches.begin() + n);
  out.extractor = std::make_unique<bigearthnet::FeatureExtractor>();
  const size_t dim = c.data.features.dim(1);
  out.features = Tensor({n, dim});
  std::copy(c.data.features.data(), c.data.features.data() + n * dim,
            out.features.data());
  Check(c.encoder->model().Save(model_path), "model save");
  auto model = milan::MilanModel::Load(model_path);
  Check(model.status(), "model load");
  out.model = std::move(model).value();
  std::remove(model_path.c_str());
  return out;
}

}  // namespace e2e
