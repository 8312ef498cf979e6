// Tests for the src/serve subsystem: snapshot hot-swap semantics, the
// representation cache's bit-identical guarantee, micro-batcher admission
// control, the wire protocol's corruption tolerance, and the end-to-end
// checkpoint -> serve path over a loopback socket.
#include "src/serve/server.h"

#include <atomic>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/factory.h"
#include "src/cl/memory.h"
#include "src/cl/trainer.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/io/container.h"
#include "src/io/serialize.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/serve/cache.h"
#include "src/serve/protocol.h"
#include "src/serve/snapshot.h"
#include "src/serve/tcp_server.h"
#include "src/tensor/grad_mode.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace edsr {
namespace {

using serve::EmbedResult;
using serve::MessageType;
using serve::Request;
using serve::Response;
using serve::ServeClient;
using serve::ServeHandle;
using serve::ServeOptions;
using serve::SnapshotHandle;
using serve::TcpServer;

ssl::EncoderConfig TinyEncoderConfig() {
  ssl::EncoderConfig config;
  config.mlp_dims = {12, 16, 16};
  config.projector_hidden = 16;
  config.representation_dim = 8;
  return config;
}

// Deterministic encoder: the same seed always yields the same weights, so a
// test can build a twin and compute reference representations out-of-band.
std::unique_ptr<ssl::Encoder> TinyEncoder(uint64_t seed) {
  util::Rng rng(seed);
  auto encoder = ssl::Encoder::Make(TinyEncoderConfig(), &rng);
  encoder->SetTraining(false);
  encoder->SetRequiresGrad(false);
  return encoder;
}

std::vector<float> TestInput(uint64_t seed, int64_t dim) {
  util::Rng rng(seed + 1000);
  std::vector<float> input(dim);
  for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);
  return input;
}

// Batch-1 forward through a twin encoder: the bitwise reference for what a
// served representation must look like.
std::vector<float> ReferenceRepresentation(ssl::Encoder* encoder,
                                           const std::vector<float>& input) {
  tensor::NoGradGuard no_grad;
  tensor::Tensor rep = encoder->Forward(tensor::Tensor::FromVector(
      input, {1, static_cast<int64_t>(input.size())}));
  return rep.data();
}

ServeOptions TinyServeOptions() {
  ServeOptions options;
  options.load.encoder = TinyEncoderConfig();
  return options;
}

std::string TestDir(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- Snapshot registry -------------------------------------------------

TEST(ServeSnapshot, InstallBuildsQueryableSnapshot) {
  ServeHandle handle(TinyServeOptions());
  EXPECT_FALSE(handle.Health().ok);

  // A labeled 4-row memory bank: two well-separated classes.
  std::vector<float> bank;
  std::vector<int64_t> labels = {0, 0, 1, 1};
  for (int64_t i = 0; i < 4; ++i) {
    std::vector<float> row(12, i < 2 ? -1.0f : 1.0f);
    bank.insert(bank.end(), row.begin(), row.end());
  }
  SnapshotHandle snapshot =
      handle.InstallSnapshot(TinyEncoder(1), bank, labels, "unit-test");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->id(), 1u);
  EXPECT_EQ(snapshot->input_dim(), 12);
  EXPECT_EQ(snapshot->representation_dim(), 8);
  EXPECT_EQ(snapshot->knn_bank_size(), 4);
  EXPECT_EQ(snapshot->num_classes(), 2);

  ServeHandle::HealthInfo health = handle.Health();
  EXPECT_TRUE(health.ok);
  EXPECT_EQ(health.snapshot_id, 1u);
  EXPECT_EQ(health.source, "unit-test");

  EmbedResult embed = handle.Embed(TestInput(0, 12));
  ASSERT_TRUE(embed.status.ok()) << embed.status.ToString();
  EXPECT_EQ(embed.snapshot_id, 1u);
  EXPECT_EQ(static_cast<int64_t>(embed.representation.size()), 8);

  EmbedResult label = handle.KnnLabel(std::vector<float>(12, 1.0f));
  ASSERT_TRUE(label.status.ok()) << label.status.ToString();
  EXPECT_GE(label.label, 0);
  EXPECT_LT(label.label, 2);
}

TEST(ServeSnapshot, EmbedWithoutSnapshotFailsCleanly) {
  ServeHandle handle(TinyServeOptions());
  EmbedResult embed = handle.Embed(TestInput(0, 12));
  EXPECT_FALSE(embed.status.ok());
}

TEST(ServeSnapshot, WrongInputDimensionRejectedPerRequest) {
  ServeHandle handle(TinyServeOptions());
  handle.InstallSnapshot(TinyEncoder(1), {}, {}, "unit-test");
  EmbedResult embed = handle.Embed(std::vector<float>(5, 0.0f));
  EXPECT_EQ(embed.status.code(), util::StatusCode::kInvalidArgument);
}

TEST(ServeSnapshot, KnnLabelWithoutBankIsInvalidArgument) {
  ServeHandle handle(TinyServeOptions());
  handle.InstallSnapshot(TinyEncoder(1), {}, {}, "unit-test");
  EmbedResult label = handle.KnnLabel(TestInput(0, 12));
  EXPECT_EQ(label.status.code(), util::StatusCode::kInvalidArgument);
}

// The headline hot-swap invariant: under a concurrent stream of requests, a
// swap must never produce a response that mixes model versions — every
// representation is bitwise the old snapshot's or bitwise the new one's,
// consistent with its reported snapshot id.
TEST(ServeSwap, ConcurrentRequestsNeverSeeMixedVersions) {
  ServeHandle handle(TinyServeOptions());
  const std::vector<float> input = TestInput(7, 12);
  // Twin encoders with the installers' seeds give the two legal answers.
  const std::vector<float> rep_old =
      ReferenceRepresentation(TinyEncoder(1).get(), input);
  const std::vector<float> rep_new =
      ReferenceRepresentation(TinyEncoder(2).get(), input);
  ASSERT_NE(rep_old, rep_new);

  // Installs alternate seeds 1, 2, 1, 2, ... so snapshot ids map to weights
  // by parity: odd ids carry seed-1 weights, even ids seed-2.
  handle.InstallSnapshot(TinyEncoder(1), {}, {}, "old");
  std::atomic<bool> stop{false};
  std::atomic<int64_t> checked{0};
  std::atomic<int64_t> mixed{0};

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        EmbedResult result = handle.Embed(input);
        if (!result.status.ok()) continue;  // transient overload is legal
        const std::vector<float>& expected =
            result.snapshot_id % 2 == 1 ? rep_old : rep_new;
        if (result.representation != expected) mixed.fetch_add(1);
        checked.fetch_add(1);
      }
    });
  }

  // Swap repeatedly while the clients hammer the handle.
  SnapshotHandle last;
  for (int swap = 0; swap < 8; ++swap) {
    uint64_t seed = (swap % 2 == 0) ? 2 : 1;
    last = handle.InstallSnapshot(TinyEncoder(seed), {}, {},
                                  "swap-" + std::to_string(swap));
  }
  // Let the clients observe the final snapshot before stopping.
  while (checked.load() < 200) std::this_thread::yield();
  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(mixed.load(), 0);
  EXPECT_GE(handle.registry()->swaps(), 8);
  EXPECT_EQ(handle.registry()->Current()->id(), last->id());
}

// ---- Representation cache ----------------------------------------------

TEST(ServeCache, HitIsBitIdenticalToColdForward) {
  ServeHandle handle(TinyServeOptions());
  handle.InstallSnapshot(TinyEncoder(3), {}, {}, "unit-test");
  const std::vector<float> input = TestInput(9, 12);
  const std::vector<float> reference =
      ReferenceRepresentation(TinyEncoder(3).get(), input);

  // GetCounter (get-or-create): this test may be the first cache user in
  // the process, so the counter may not exist yet.
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("serve.cache.hits");
  int64_t hits_before = hits->Value();

  EmbedResult cold = handle.Embed(input);  // miss: fills the cache
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EmbedResult warm = handle.Embed(input);  // hit: served from the cache
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();

  EXPECT_EQ(cold.representation, reference);
  EXPECT_EQ(warm.representation, cold.representation);
  EXPECT_GE(hits->Value(), hits_before + 1);
}

TEST(ServeCache, EntriesAreScopedToSnapshotId) {
  serve::RepresentationCache cache(4);
  std::vector<float> input = {1.0f, 2.0f};
  cache.Insert(1, input, {10.0f});
  std::vector<float> out;
  EXPECT_TRUE(cache.Lookup(1, input, &out));
  EXPECT_FALSE(cache.Lookup(2, input, &out));
}

TEST(ServeCache, EvictsLeastRecentlyUsed) {
  serve::RepresentationCache cache(2);
  cache.Insert(1, {1.0f}, {10.0f});
  cache.Insert(1, {2.0f}, {20.0f});
  std::vector<float> out;
  ASSERT_TRUE(cache.Lookup(1, {1.0f}, &out));  // promotes {1}
  cache.Insert(1, {3.0f}, {30.0f});            // evicts {2}
  EXPECT_TRUE(cache.Lookup(1, {1.0f}, &out));
  EXPECT_FALSE(cache.Lookup(1, {2.0f}, &out));
  EXPECT_TRUE(cache.Lookup(1, {3.0f}, &out));
  EXPECT_EQ(cache.size(), 2);
}

TEST(ServeCache, ZeroCapacityDisables) {
  serve::RepresentationCache cache(0);
  cache.Insert(1, {1.0f}, {10.0f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup(1, {1.0f}, &out));
  EXPECT_EQ(cache.size(), 0);
}

// ---- Micro-batcher admission control -----------------------------------

TEST(ServeBatcher, QueueOverflowRejectsInsteadOfBlocking) {
  ServeOptions options = TinyServeOptions();
  options.batcher.max_queue = 4;
  options.cache_capacity = 0;  // every request must reach the queue
  ServeHandle handle(options);
  handle.InstallSnapshot(TinyEncoder(1), {}, {}, "unit-test");

  // A paused worker leaves submissions queued — the deterministic way to
  // fill the bounded queue.
  handle.batcher()->Pause();
  std::vector<std::future<EmbedResult>> futures(5);
  const std::vector<float> input = TestInput(0, 12);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(handle.batcher()->Submit(input, false, &futures[i]).ok());
  }
  util::Status overflow = handle.batcher()->Submit(input, false, &futures[4]);
  EXPECT_EQ(overflow.code(), util::StatusCode::kOverloaded);
  EXPECT_EQ(handle.batcher()->queue_depth(), 4);

  // Resume: the four admitted requests complete normally.
  handle.batcher()->Resume();
  for (int i = 0; i < 4; ++i) {
    EmbedResult result = futures[i].get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
}

TEST(ServeBatcher, StopCompletesQueuedRequestsWithOverloaded) {
  ServeOptions options = TinyServeOptions();
  options.cache_capacity = 0;
  ServeHandle handle(options);
  handle.InstallSnapshot(TinyEncoder(1), {}, {}, "unit-test");
  handle.batcher()->Pause();
  std::future<EmbedResult> future;
  ASSERT_TRUE(
      handle.batcher()->Submit(TestInput(0, 12), false, &future).ok());
  handle.batcher()->Stop();
  EXPECT_EQ(future.get().status.code(), util::StatusCode::kOverloaded);
}

// ---- Wire protocol ------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip) {
  Request request;
  request.type = MessageType::kEmbedRequest;
  request.request_id = 42;
  request.input = {1.5f, -2.0f, 0.25f};
  std::vector<uint8_t> frame = serve::EncodeRequest(request);
  // Strip the 8-byte header; DecodeRequest wants the payload.
  std::vector<uint8_t> payload(frame.begin() + 8, frame.end());
  Request decoded;
  ASSERT_TRUE(serve::DecodeRequest(payload, &decoded).ok());
  EXPECT_EQ(decoded.type, request.type);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.input, request.input);
}

TEST(ServeProtocol, ResponseRoundTripCarriesStatus) {
  Response response;
  response.type = MessageType::kEmbedResponse;
  response.request_id = 7;
  response.status = util::Status::Overloaded("busy");
  response.snapshot_id = 3;
  response.representation = {0.5f, 0.75f};
  std::vector<uint8_t> frame = serve::EncodeResponse(response);
  std::vector<uint8_t> payload(frame.begin() + 8, frame.end());
  Response decoded;
  ASSERT_TRUE(serve::DecodeResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.status.code(), util::StatusCode::kOverloaded);
  EXPECT_EQ(decoded.status.message(), "busy");
  EXPECT_EQ(decoded.snapshot_id, 3u);
  EXPECT_EQ(decoded.representation, response.representation);
}

// Fuzz contract: no truncation or single-bit corruption of a valid payload
// may crash the decoder — every mutation yields OK or a clean error.
TEST(ServeProtocol, FuzzTruncatedAndBitFlippedPayloads) {
  Request request;
  request.type = MessageType::kKnnLabelRequest;
  request.request_id = 99;
  request.input = TestInput(1, 12);
  std::vector<uint8_t> frame = serve::EncodeRequest(request);
  std::vector<uint8_t> payload(frame.begin() + 8, frame.end());

  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<uint8_t> truncated(payload.begin(), payload.begin() + cut);
    Request out;
    serve::DecodeRequest(truncated, &out);  // must not crash
  }
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = payload;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      Request out;
      serve::DecodeRequest(flipped, &out);  // must not crash
    }
  }
  // Trailing garbage is rejected, not silently ignored.
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  Request out;
  EXPECT_FALSE(serve::DecodeRequest(padded, &out).ok());
}

// ---- Loopback TCP server ------------------------------------------------

TEST(ServeTcp, EndToEndLoopbackRoundTrip) {
  ServeHandle handle(TinyServeOptions());
  std::vector<float> bank;
  std::vector<int64_t> labels = {0, 1};
  bank.insert(bank.end(), 12, -1.0f);
  bank.insert(bank.end(), 12, 1.0f);
  handle.InstallSnapshot(TinyEncoder(5), bank, labels, "tcp-test");

  TcpServer server(&handle);
  ASSERT_TRUE(server.Start(0).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  ServeClient::HealthReply health = client.Health();
  ASSERT_TRUE(health.status.ok()) << health.status.ToString();
  EXPECT_TRUE(health.healthy);
  EXPECT_EQ(health.source, "tcp-test");

  const std::vector<float> input = TestInput(4, 12);
  EmbedResult embed = client.Embed(input);
  ASSERT_TRUE(embed.status.ok()) << embed.status.ToString();
  EXPECT_EQ(embed.representation,
            ReferenceRepresentation(TinyEncoder(5).get(), input));

  EmbedResult label = client.KnnLabel(std::vector<float>(12, 1.0f));
  ASSERT_TRUE(label.status.ok()) << label.status.ToString();
  EXPECT_GE(label.label, 0);

  util::Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  obs::Json parsed;
  ASSERT_TRUE(obs::Json::Parse(*stats, &parsed));
  ASSERT_TRUE(parsed.Has("snapshot"));
  EXPECT_EQ(parsed.Find("snapshot")->Find("source")->AsString(), "tcp-test");

  client.Close();
  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 1);
}

TEST(ServeTcp, ServerErrorStatusReachesClient) {
  ServeHandle handle(TinyServeOptions());  // no snapshot installed
  TcpServer server(&handle);
  ASSERT_TRUE(server.Start(0).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  EmbedResult embed = client.Embed(TestInput(0, 12));
  EXPECT_FALSE(embed.status.ok());
  EXPECT_EQ(embed.status.code(), util::StatusCode::kInternal);
}

TEST(ServeTcp, MalformedFrameGetsErrorResponseThenDisconnect) {
  ServeHandle handle(TinyServeOptions());
  TcpServer server(&handle);
  ASSERT_TRUE(server.Start(0).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  // A frame with valid magic/size but an unknown message type.
  io::BufferWriter garbage;
  garbage.WriteU32(serve::kFrameMagic);
  garbage.WriteU32(9);
  garbage.WriteU8(200);  // not a request type
  garbage.WriteU64(1);
  ASSERT_TRUE(client.SendRaw(garbage.TakeBytes()).ok());

  std::vector<uint8_t> payload;
  ASSERT_TRUE(client.ReadRawPayload(&payload).ok());
  Response response;
  ASSERT_TRUE(serve::DecodeResponse(payload, &response).ok());
  EXPECT_EQ(response.type, MessageType::kErrorResponse);
  EXPECT_FALSE(response.status.ok());

  // The server hangs up after a framing error: the next read sees EOF.
  EXPECT_FALSE(client.ReadRawPayload(&payload).ok());
}

TEST(ServeTcp, OversizedFrameDeclarationIsRejected) {
  ServeHandle handle(TinyServeOptions());
  TcpServer server(&handle);
  ASSERT_TRUE(server.Start(0).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  io::BufferWriter huge;
  huge.WriteU32(serve::kFrameMagic);
  huge.WriteU32(serve::kMaxFramePayload + 1);  // declared, never sent
  ASSERT_TRUE(client.SendRaw(huge.TakeBytes()).ok());

  std::vector<uint8_t> payload;
  ASSERT_TRUE(client.ReadRawPayload(&payload).ok());
  Response response;
  ASSERT_TRUE(serve::DecodeResponse(payload, &response).ok());
  EXPECT_EQ(response.type, MessageType::kErrorResponse);
  EXPECT_FALSE(response.status.ok());
}

// ---- Checkpoint -> serve end to end ------------------------------------

cl::StrategyContext ServeTrainContext() {
  cl::StrategyContext context;
  context.encoder.mlp_dims = {48, 32, 32};
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  context.epochs = 1;
  context.batch_size = 16;
  context.memory_per_task = 8;
  context.replay_batch_size = 8;
  context.seed = 3;
  return context;
}

data::TaskSequence ServeTrainSequence() {
  data::SyntheticImageConfig config;
  config.name = "serve-e2e";
  config.num_classes = 4;
  config.train_per_class = 16;
  config.test_per_class = 8;
  config.geometry = {3, 4, 4};
  config.latent_dim = 6;
  config.class_separation = 3.5f;
  config.seed = 17;
  auto pair = MakeSyntheticImageData(config);
  return data::TaskSequence::SplitByClasses(pair.train, pair.test, 2, nullptr);
}

// Trains `name` for two increments with checkpointing, then serves the
// checkpoint: bitwise the trained encoder's representations, and a kNN bank
// exactly when the strategy keeps a replay buffer.
void ExpectServesTrainedRun(const std::string& name) {
  SCOPED_TRACE(name);
  cl::StrategyContext context = ServeTrainContext();
  data::TaskSequence sequence = ServeTrainSequence();

  cl::CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("serve_e2e_ckpt_" + name);
  std::unique_ptr<cl::ContinualStrategy> strategy =
      cl::MakeStrategy(name, context);
  cl::RunContinual(strategy.get(), sequence, cl::EvalOptions(), checkpoint);

  ServeOptions options;
  options.load.encoder = context.encoder;
  ServeHandle handle(options);
  util::Status loaded = handle.LoadAndSwap(checkpoint.directory + "/run.ckpt");
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  SnapshotHandle snapshot = handle.registry()->Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->increments_seen(), 2);
  // A replay buffer doubles as the labeled knn bank: a full budget from each
  // of the two increments.
  const bool keeps_buffer =
      name == "der" || name == "lump" || name.rfind("edsr", 0) == 0;
  EXPECT_EQ(snapshot->knn_bank_size(),
            keeps_buffer ? 2 * context.memory_per_task : 0);

  // Served representations are bitwise what the trained encoder produces.
  strategy->encoder()->SetTraining(false);
  const std::vector<float> input = TestInput(2, 48);
  EmbedResult embed = handle.Embed(input);
  ASSERT_TRUE(embed.status.ok()) << embed.status.ToString();
  EXPECT_EQ(embed.representation,
            ReferenceRepresentation(strategy->encoder(), input));

  EmbedResult label = handle.KnnLabel(input);
  if (!keeps_buffer) {
    EXPECT_EQ(label.status.code(), util::StatusCode::kInvalidArgument);
    return;
  }
  ASSERT_TRUE(label.status.ok()) << label.status.ToString();
  EXPECT_GE(label.label, 0);
  EXPECT_LT(label.label, snapshot->num_classes());
}

// Every name cl::MakeStrategy recognizes: the strategies that keep a replay
// buffer write a strategy/memory section, the others (finetune, SI, CaSSLe)
// none.
TEST(ServeCheckpoint, LoadAndSwapServesTrainedRunBitIdentically) {
  for (const char* name :
       {"finetune", "si", "der", "lump", "cassle", "edsr", "edsr-css",
        "edsr-dis", "edsr-random", "edsr-distant", "edsr-kmeans",
        "edsr-minvar", "edsr-norm", "edsr-logdet"}) {
    ExpectServesTrainedRun(name);
  }
}

TEST(ServeCheckpoint, CorruptCheckpointFailsCleanlyAndKeepsOldSnapshot) {
  cl::StrategyContext context = ServeTrainContext();
  data::TaskSequence sequence = ServeTrainSequence();
  cl::CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("serve_corrupt_ckpt");
  core::Edsr strategy(context);
  cl::RunContinual(&strategy, sequence, cl::EvalOptions(), checkpoint);
  const std::string path = checkpoint.directory + "/run.ckpt";

  ServeOptions options;
  options.load.encoder = context.encoder;
  ServeHandle handle(options);
  ASSERT_TRUE(handle.LoadAndSwap(path).ok());
  uint64_t original = handle.registry()->Current()->id();

  // Flip one byte mid-file: the CRC check must reject the reload and the
  // original snapshot must keep serving.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(600);
    char byte = 0;
    file.seekg(600);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(600);
    file.write(&byte, 1);
  }
  util::Status reload = handle.LoadAndSwap(path);
  EXPECT_FALSE(reload.ok());
  ASSERT_NE(handle.registry()->Current(), nullptr);
  EXPECT_EQ(handle.registry()->Current()->id(), original);
  EmbedResult embed = handle.Embed(TestInput(2, 48));
  EXPECT_TRUE(embed.status.ok()) << embed.status.ToString();
}

// A checkpoint written section by section: the strategy meta,
// TinyEncoder(1)'s state, and a strategy/memory of two entries labeled 0 and
// `label`, whose raw rows are `width` floats wide (the encoder takes 12).
std::string WriteMemoryCheckpoint(const std::string& name, int64_t label,
                                  int64_t width = 12) {
  const std::string path = TestDir(name);
  io::ContainerWriter writer(path);
  io::BufferWriter meta;
  meta.WriteString("der");
  meta.WriteI64(1);  // increments_seen
  writer.AddSection("strategy/meta", &meta);
  io::BufferWriter encoder;
  TinyEncoder(1)->SerializeState(&encoder);
  writer.AddSection("strategy/encoder", &encoder);
  std::vector<cl::MemoryEntry> entries;
  for (int64_t entry_label : {int64_t{0}, label}) {
    cl::MemoryEntry entry;
    entry.features.assign(width, 0.5f);
    entry.task_id = 0;
    entry.label = entry_label;
    entries.push_back(std::move(entry));
  }
  cl::MemoryBuffer memory(2);
  memory.AddIncrement(std::move(entries));
  io::BufferWriter memory_state;
  memory.Serialize(&memory_state);
  writer.AddSection("strategy/memory", &memory_state);
  EDSR_CHECK(writer.Finish().ok());
  return path;
}

// A CRC-valid checkpoint whose memory cannot form a bank serves embeddings
// but builds no bank. With an implausible label, the bank would vote over
// 1 + the largest label classes: for INT64_MAX that sum overflows, and for
// 2^40 every KnnLabel would allocate a 2^40-entry vote table. Rows one float
// narrower than the encoder input cannot be embedded at all.
TEST(ServeCheckpoint, HugeMemoryLabelYieldsNoBank) {
  {
    // The same layout with a plausible label and the encoder's width builds
    // the bank, so the cases below fail on the label or the width alone.
    ServeHandle handle(TinyServeOptions());
    util::Status loaded =
        handle.LoadAndSwap(WriteMemoryCheckpoint("label_ok.ckpt", 3));
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(handle.registry()->Current()->knn_bank_size(), 2);
    EXPECT_EQ(handle.registry()->Current()->num_classes(), 4);
    EXPECT_TRUE(handle.KnnLabel(TestInput(0, 12)).status.ok());
  }
  struct Case {
    const char* file;
    int64_t label;
    int64_t width;
  };
  for (const Case& c :
       {Case{"label_max.ckpt", std::numeric_limits<int64_t>::max(), 12},
        Case{"label_2pow40.ckpt", int64_t{1} << 40, 12},
        Case{"narrow_rows.ckpt", 3, 11}}) {
    SCOPED_TRACE(c.file);
    ServeHandle handle(TinyServeOptions());
    util::Status loaded =
        handle.LoadAndSwap(WriteMemoryCheckpoint(c.file, c.label, c.width));
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    SnapshotHandle snapshot = handle.registry()->Current();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->knn_bank_size(), 0);
    EXPECT_TRUE(handle.Embed(TestInput(0, 12)).status.ok());
    EXPECT_EQ(handle.KnnLabel(TestInput(0, 12)).status.code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(ServeCheckpoint, MissingFileIsCleanError) {
  ServeHandle handle(TinyServeOptions());
  util::Status status = handle.LoadAndSwap(TestDir("does_not_exist.ckpt"));
  EXPECT_FALSE(status.ok());
}

// ---- Live ops plane ------------------------------------------------------

// A loopback server with a two-class bank: the fixture for every ops test.
struct OpsServer {
  OpsServer() : handle(TinyServeOptions()), server(&handle) {
    std::vector<float> bank;
    std::vector<int64_t> labels = {0, 1};
    bank.insert(bank.end(), 12, -1.0f);
    bank.insert(bank.end(), 12, 1.0f);
    handle.InstallSnapshot(TinyEncoder(7), bank, labels, "ops-test");
    EDSR_CHECK(server.Start(0).ok());
  }
  ~OpsServer() { server.Stop(); }

  ServeHandle handle;
  TcpServer server;
};

TEST(ServeOps, MetricsRequestReturnsRegistrySnapshot) {
  OpsServer ops;
  ServeClient client;
  ASSERT_TRUE(client.Connect(ops.server.port()).ok());
  const int kRequests = 5;
  for (int r = 0; r < kRequests; ++r) {
    ASSERT_TRUE(client.Embed(TestInput(r, 12)).status.ok());
  }

  util::Result<std::string> body = client.Metrics(serve::MetricsMode::kJson);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  obs::Json parsed;
  ASSERT_TRUE(obs::Json::Parse(*body, &parsed)) << *body;
  const obs::Json* metrics = parsed.Find("metrics");
  ASSERT_TRUE(metrics != nullptr);
  const obs::Json* latency = metrics->Find("latency");
  ASSERT_TRUE(latency != nullptr);
  const obs::Json* embed = latency->Find("serve.lat.embed");
  ASSERT_TRUE(embed != nullptr) << *body;
  // The registry is process-global, so earlier tests may have contributed.
  EXPECT_GE(embed->Find("count")->AsInt(), kRequests);
  EXPECT_GT(embed->Find("p99_us")->AsInt(), 0);
  // No SLO tracker attached: the slo field is present but empty.
  const obs::Json* slo = parsed.Find("slo");
  ASSERT_TRUE(slo != nullptr && slo->is_array());
  EXPECT_EQ(slo->size(), 0);
}

TEST(ServeOps, MetricsRequestPrometheusTextMode) {
  OpsServer ops;
  ServeClient client;
  ASSERT_TRUE(client.Connect(ops.server.port()).ok());
  ASSERT_TRUE(client.Embed(TestInput(1, 12)).status.ok());

  util::Result<std::string> body =
      client.Metrics(serve::MetricsMode::kPrometheusText);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE((*body).find("serve_lat_embed_us{quantile=\"0.99\"}"),
            std::string::npos)
      << *body;
  EXPECT_NE((*body).find("serve_req_embed"), std::string::npos);
  EXPECT_NE((*body).find("# TYPE"), std::string::npos);
}

TEST(ServeOps, StatusRequestDescribesTheServer) {
  OpsServer ops;
  ServeClient client;
  ASSERT_TRUE(client.Connect(ops.server.port()).ok());
  ASSERT_TRUE(client.Embed(TestInput(2, 12)).status.ok());

  util::Result<std::string> body = client.Status();
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  obs::Json parsed;
  ASSERT_TRUE(obs::Json::Parse(*body, &parsed)) << *body;
  EXPECT_EQ(parsed.Find("snapshot")->Find("source")->AsString(), "ops-test");
  EXPECT_GE(parsed.Find("uptime_ms")->AsInt(), 0);
  // rid 1 was the embed, rid 2 is this status request itself.
  EXPECT_GE(parsed.Find("last_rid")->AsInt(), 2);
  EXPECT_EQ(parsed.Find("connections_accepted")->AsInt(), 1);
  ASSERT_TRUE(parsed.Has("queue"));
  EXPECT_GE(parsed.Find("queue")->Find("max_batch")->AsInt(), 1);
  ASSERT_TRUE(parsed.Has("cache"));
  ASSERT_TRUE(parsed.Has("dispatch"));
  EXPECT_GE(parsed.Find("dispatch")->Find("threads")->AsInt(), 1);
  EXPECT_EQ(parsed.Find("slo_breached")->AsInt(), 0);
}

TEST(ServeOps, StageHistogramsCoverThePipeline) {
  OpsServer ops;
  ServeClient client;
  ASSERT_TRUE(client.Connect(ops.server.port()).ok());
  ASSERT_TRUE(client.Embed(TestInput(3, 12)).status.ok());
  // RecordTrace runs after the reply frame is written, so a lone Embed can
  // race this thread's registry read. The connection thread is sequential:
  // once this follow-up request is answered, the embed's trace is recorded.
  ASSERT_TRUE(client.Status().ok());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const char* stage : {"accept", "queue", "forward", "reply"}) {
    std::string name = std::string("serve.stage.") + stage;
    ASSERT_TRUE(registry.Has(name)) << name;
    EXPECT_GE(registry.Value(name + ".count"), 1.0) << name;
  }
}

TEST(ServeOps, SloBreachSurfacesThroughMetricsRequest) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto objectives = obs::ParseSloSpec("embed:p99<1us");
  ASSERT_TRUE(objectives.ok());
  obs::SloTracker tracker(std::move(objectives).ValueOrDie(), /*window=*/4);
  tracker.Bind("embed", registry.GetLatencyHisto("serve.lat.embed"),
               registry.GetCounter("serve.req.embed"),
               registry.GetCounter("serve.err.embed"));

  OpsServer ops;
  ops.server.SetSloTracker(&tracker);
  ServeClient client;
  ASSERT_TRUE(client.Connect(ops.server.port()).ok());

  // Baseline evaluation (kMetrics evaluates the tracker server-side), then
  // traffic that cannot possibly meet a 1us p99, then a second evaluation.
  ASSERT_TRUE(client.Metrics(serve::MetricsMode::kJson).ok());
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE(client.Embed(TestInput(r, 12)).status.ok());
  }
  util::Result<std::string> body = client.Metrics(serve::MetricsMode::kJson);
  ASSERT_TRUE(body.ok());
  obs::Json parsed;
  ASSERT_TRUE(obs::Json::Parse(*body, &parsed)) << *body;
  const obs::Json* slo = parsed.Find("slo");
  ASSERT_TRUE(slo != nullptr && slo->is_array());
  ASSERT_EQ(slo->size(), 1);
  EXPECT_EQ(slo->at(0).Find("class")->AsString(), "embed");
  EXPECT_TRUE(slo->at(0).Find("breach")->AsBool()) << *body;
  EXPECT_EQ(registry.Value("slo.embed.p99.breach"), 1.0);
  EXPECT_EQ(tracker.breached(), 1);

  // kStatus reports the breach too.
  util::Result<std::string> status_body = client.Status();
  ASSERT_TRUE(status_body.ok());
  obs::Json status_parsed;
  ASSERT_TRUE(obs::Json::Parse(*status_body, &status_parsed));
  EXPECT_EQ(status_parsed.Find("slo_breached")->AsInt(), 1);

  // Detach before the tracker goes out of scope.
  ops.server.SetSloTracker(nullptr);
}

TEST(ServeOps, ConcurrentMetricsWhileEmbeddingNeverTears) {
  OpsServer ops;
  const int64_t rid_before = ops.server.last_rid();

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 12;
  // Per frame: one embed + one metrics + one status = 3 rids.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ServeClient client;
      if (!client.Connect(ops.server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRoundsPerThread; ++r) {
        if (!client.Embed(TestInput(t * 100 + r, 12)).status.ok()) {
          failures.fetch_add(1);
        }
        serve::MetricsMode mode = (r % 2 == 0)
                                      ? serve::MetricsMode::kJson
                                      : serve::MetricsMode::kPrometheusText;
        util::Result<std::string> metrics = client.Metrics(mode);
        if (!metrics.ok()) {
          failures.fetch_add(1);
        } else if (mode == serve::MetricsMode::kJson) {
          // Torn/interleaved writes would break the JSON framing.
          obs::Json parsed;
          if (!obs::Json::Parse(*metrics, &parsed)) failures.fetch_add(1);
        } else if ((*metrics).find("serve_lat_embed_us") ==
                   std::string::npos) {
          failures.fetch_add(1);
        }
        util::Result<std::string> status = client.Status();
        obs::Json status_parsed;
        if (!status.ok() || !obs::Json::Parse(*status, &status_parsed)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Every frame got a unique, monotone rid: the final last_rid advanced by
  // exactly the number of requests issued across all connections.
  EXPECT_EQ(ops.server.last_rid() - rid_before,
            kThreads * kRoundsPerThread * 3);
  EXPECT_EQ(ops.server.connections_accepted(), kThreads);
}

}  // namespace
}  // namespace edsr
