// Serving demo: train a two-increment EDSR run with checkpointing, serve
// the increment-1 model over a loopback socket, and hot-swap to the
// increment-2 checkpoint while client threads keep sending Embed/KnnLabel
// traffic — then prove that not one response was dropped or mixed model
// versions.
//
//   ./serve_embeddings [--metrics_out <file.jsonl>] [--trace_out <file.json>]
//                      [--clients <n>] [--requests <n per client>]
//
// The flow mirrors a production continual-learning deployment:
//
//   1. RunContinual(stop_after_increment=0) checkpoints the increment-1
//      model; the file is kept aside as inc1.ckpt.
//   2. ResumeContinual finishes the run; run.ckpt is now the increment-2
//      model (same file path a trainer process would atomically replace).
//   3. A ServeHandle + TcpServer serve inc1.ckpt; client threads hammer
//      Embed/KnnLabel over TCP.
//   4. Mid-traffic, LoadAndSwap(run.ckpt) hot-swaps to increment 2.
//      In-flight batches finish on the old weights; nothing is dropped.
//   5. Every response for the fixed probe input is checked post-hoc: its
//      representation must be bitwise the increment-1 answer or the
//      increment-2 answer, consistent with its reported snapshot id.
//
// --metrics_out appends one "serve" record (request/error/mixed counters,
// cache stats, serve.* metrics snapshot; schema in DESIGN.md §7) that
// scripts/validate_telemetry.py checks — including mixed_responses == 0.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "examples/cli.h"
#include "src/cl/trainer.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/obs/run_record.h"
#include "src/obs/trace.h"
#include "src/serve/server.h"
#include "src/serve/tcp_server.h"
#include "src/util/stopwatch.h"

namespace {

struct ProbeObservation {
  uint64_t snapshot_id = 0;
  std::vector<float> representation;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace edsr;

  std::string metrics_out;
  std::string trace_out;
  std::string clients_flag;
  std::string requests_flag;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--metrics_out", &metrics_out) ||
        ParseFlag(argc, argv, &i, "--trace_out", &trace_out) ||
        ParseFlag(argc, argv, &i, "--clients", &clients_flag) ||
        ParseFlag(argc, argv, &i, "--requests", &requests_flag)) {
      continue;
    }
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 1;
  }
  int64_t num_clients =
      clients_flag.empty() ? 4 : std::strtoll(clients_flag.c_str(), nullptr, 10);
  int64_t requests_per_client =
      requests_flag.empty() ? 200
                            : std::strtoll(requests_flag.c_str(), nullptr, 10);
  if (num_clients <= 0 || requests_per_client <= 0) {
    std::fprintf(stderr, "--clients and --requests must be positive\n");
    return 1;
  }
  if (!trace_out.empty()) {
    obs::Tracer::SetEnabled(true);
    obs::Tracer::SetEventRecording(true);
  }

  // ---- 1+2: train two increments, keeping both checkpoints --------------
  data::SyntheticImageConfig data_config;
  data_config.name = "serve-demo";
  data_config.num_classes = 8;
  data_config.train_per_class = 30;
  data_config.test_per_class = 10;
  data_config.geometry = {3, 8, 8};
  data_config.latent_dim = 10;
  data_config.class_separation = 1.5f;
  data_config.seed = 42;
  data::SyntheticImagePair pair = MakeSyntheticImageData(data_config);
  util::Rng split_rng(7);
  data::TaskSequence sequence =
      data::TaskSequence::SplitByClasses(pair.train, pair.test, 2, &split_rng);

  cl::StrategyContext context;
  context.encoder.mlp_dims = {pair.train.dim(), 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.epochs = 5;
  context.batch_size = 32;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 8;
  context.replay_batch_size = 16;
  context.seed = 0;

  const std::string work_dir =
      (std::filesystem::temp_directory_path() / "edsr_serve_demo").string();
  std::filesystem::remove_all(work_dir);
  cl::CheckpointOptions checkpoint;
  checkpoint.directory = work_dir;
  checkpoint.stop_after_increment = 0;  // pause after increment 1

  core::Edsr strategy(context);
  std::printf("training increment 1/2...\n");
  cl::RunContinual(&strategy, sequence, {}, checkpoint);
  const std::string run_ckpt = work_dir + "/run.ckpt";
  const std::string inc1_ckpt = work_dir + "/inc1.ckpt";
  std::filesystem::copy_file(run_ckpt, inc1_ckpt);

  std::printf("training increment 2/2...\n");
  checkpoint.stop_after_increment = -1;
  core::Edsr resumed(context);
  cl::ContinualRunResult result{eval::AccuracyMatrix(sequence.num_tasks())};
  util::Status status =
      cl::ResumeContinual(&resumed, sequence, {}, checkpoint, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "resume failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("final Acc = %.1f%%, final Fgt = %.1f%%\n",
              result.matrix.FinalAcc() * 100.0,
              result.matrix.FinalFgt() * 100.0);

  // ---- 3: serve increment 1 over a loopback socket ----------------------
  serve::ServeOptions options;
  options.load.encoder = context.encoder;
  serve::ServeHandle handle(options);
  status = handle.LoadAndSwap(inc1_ckpt);
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const uint64_t inc1_id = handle.registry()->Current()->id();
  serve::TcpServer server(&handle);
  if (!server.Start(0).ok()) {
    std::fprintf(stderr, "cannot bind a loopback port\n");
    return 1;
  }
  std::printf("serving increment-1 snapshot %llu on 127.0.0.1:%u\n",
              static_cast<unsigned long long>(inc1_id), server.port());

  // The fixed probe input whose responses prove the swap never mixes.
  util::Rng probe_rng(99);
  std::vector<float> probe(pair.train.dim());
  for (float& v : probe) v = probe_rng.Uniform(-1.0f, 1.0f);

  std::atomic<int64_t> ok_responses{0};
  std::atomic<int64_t> dropped{0};
  std::mutex observations_mu;
  std::vector<ProbeObservation> observations;

  util::Stopwatch traffic_watch;
  std::vector<std::thread> clients;
  for (int64_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      serve::ServeClient client;
      if (!client.Connect(server.port()).ok()) {
        dropped.fetch_add(requests_per_client);
        return;
      }
      util::Rng rng(1000 + c);
      for (int64_t r = 0; r < requests_per_client; ++r) {
        if (r % 3 == 0) {
          // Unique input: exercises the miss path and fills the cache.
          std::vector<float> input(probe.size());
          for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);
          serve::EmbedResult embed = client.Embed(input);
          embed.status.ok() ? ok_responses.fetch_add(1) : dropped.fetch_add(1);
        } else if (r % 3 == 1) {
          serve::EmbedResult label = client.KnnLabel(probe);
          label.status.ok() ? ok_responses.fetch_add(1) : dropped.fetch_add(1);
        } else {
          serve::EmbedResult embed = client.Embed(probe);
          if (!embed.status.ok()) {
            dropped.fetch_add(1);
            continue;
          }
          ok_responses.fetch_add(1);
          std::lock_guard<std::mutex> lock(observations_mu);
          observations.push_back(
              {embed.snapshot_id, std::move(embed.representation)});
        }
      }
    });
  }

  // ---- 4: hot-swap to increment 2 mid-traffic ---------------------------
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  status = handle.LoadAndSwap(run_ckpt);
  if (!status.ok()) {
    std::fprintf(stderr, "swap failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const uint64_t inc2_id = handle.registry()->Current()->id();
  std::printf("hot-swapped to increment-2 snapshot %llu mid-traffic\n",
              static_cast<unsigned long long>(inc2_id));

  for (std::thread& client : clients) client.join();
  const double traffic_seconds = traffic_watch.ElapsedSeconds();
  server.Stop();

  // ---- 5: verify nothing mixed ------------------------------------------
  // The two legal probe answers, one per snapshot, fetched from the cache-
  // coherent serving path itself (the registry still holds increment 2; the
  // increment-1 reference was recorded by the earliest observations).
  serve::EmbedResult inc2_probe = handle.Embed(probe);
  int64_t mixed = 0;
  std::vector<float> inc1_representation;
  for (const ProbeObservation& obs : observations) {
    if (obs.snapshot_id == inc1_id) {
      if (inc1_representation.empty()) {
        inc1_representation = obs.representation;
      } else if (obs.representation != inc1_representation) {
        ++mixed;
      }
    } else if (obs.snapshot_id == inc2_id) {
      if (obs.representation != inc2_probe.representation) ++mixed;
    } else {
      ++mixed;  // a snapshot id nobody installed
    }
  }
  std::printf(
      "traffic: %lld ok, %lld dropped, %lld mixed across %zu probe checks "
      "(%.0f req/s)\n",
      static_cast<long long>(ok_responses.load()),
      static_cast<long long>(dropped.load()), static_cast<long long>(mixed),
      observations.size(),
      static_cast<double>(ok_responses.load()) / traffic_seconds);

  // Embed and KnnLabel latencies live in separate per-class histograms now;
  // report the embed class, which dominates this demo's traffic.
  obs::LatencyHisto::Snapshot latency =
      obs::MetricsRegistry::Global().GetLatencyHisto("serve.lat.embed")->Snap();
  std::printf("server-side latency: p50 ~%lldus  p99 ~%lldus  (%lld requests)\n",
              static_cast<long long>(latency.Quantile(0.5)),
              static_cast<long long>(latency.Quantile(0.99)),
              static_cast<long long>(latency.count));

  if (!metrics_out.empty()) {
    obs::RunLogger logger(metrics_out);
    if (!logger.ok()) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    obs::Json record = obs::Json::Object();
    record.Set("record", "serve");
    record.Set("snapshot_id", static_cast<int64_t>(inc2_id));
    record.Set("source", run_ckpt);
    record.Set("increments_seen",
               handle.registry()->Current()->increments_seen());
    record.Set("swaps", handle.registry()->swaps());
    record.Set("requests", ok_responses.load() + dropped.load());
    record.Set("ok", ok_responses.load());
    record.Set("dropped", dropped.load());
    record.Set("mixed_responses", mixed);
    obs::Json cache = obs::Json::Object();
    cache.Set("size", handle.cache()->size());
    cache.Set("capacity", handle.cache()->capacity());
    record.Set("cache", std::move(cache));
    obs::Json perf = obs::Json::Object();
    perf.Set("traffic_seconds", traffic_seconds);
    perf.Set("latency_us_p50", static_cast<double>(latency.Quantile(0.5)));
    perf.Set("latency_us_p99", static_cast<double>(latency.Quantile(0.99)));
    perf.Set("throughput_rps",
             static_cast<double>(ok_responses.load()) / traffic_seconds);
    perf.Set("metrics", obs::MetricsRegistry::Global().ToJson());
    record.Set("perf", std::move(perf));  // machine-dependent; always last
    logger.Write(record);
    std::printf("wrote serve record to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    status = obs::Tracer::WriteChromeTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  return mixed == 0 && dropped.load() == 0 ? 0 : 1;
}
