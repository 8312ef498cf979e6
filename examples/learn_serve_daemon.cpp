// Online learn-and-serve daemon driver + smoke client.
//
// Server mode (default):
//
//   ./learn_serve_daemon --dir <state_dir> [--port <n>]
//       [--strategy edsr] [--preset SynthCifar10] [--trigger "count:n=64"]
//       [--micro_batch <n>] [--seed <n>] [--memory_per_task <n>]
//       [--replay <n>] [--max_cycles <n>] [--train_hold_ms <n>]
//       [--no_fsync] [--slo "<spec>"] [--duration_ms <n>]
//
// Starts a LearnServeDaemon rooted at --dir (journal + checkpoint +
// daemon.jsonl live there; restarting with the same --dir resumes), wires
// its ingest handler into a TcpServer, prints `PORT <port>` / `PID <pid>`,
// and serves until --duration_ms elapses (0 = until killed). kill -9 at any
// point is safe: the next start replays the journal past the last
// checkpoint and re-runs the interrupted cycle bit-identically.
// --train_hold_ms sleeps inside every micro-batch step (torture hook: it
// widens the window for landing a kill mid-cycle).
//
// Client mode (--connect):
//
//   ./learn_serve_daemon --connect <port> --ingest <n> [--skip <k>]
//       [--stream "SynthCifar10|label_noise:p=0.1"] [--seed <n>]
//   ./learn_serve_daemon --connect <port> --wait_cycles <n> [--timeout_ms <n>]
//   ./learn_serve_daemon --connect <port> --last_seq
//
// --ingest draws n samples from the stream spec (same generator as the
// stream driver, so the fed stream is reproducible) and sends them as
// kIngest frames; prints `INGEST_OK <acked> <failed> <last_seq>`. Transport
// errors are counted, not fatal, so an ingest client survives its server
// being killed under it. --skip discards the first k stream samples before
// sending — resuming an interrupted feed: set k to the server's journaled
// seq (--last_seq, which prints `LAST_SEQ <n>` from the daemon.last_seq
// gauge) and the stream continues exactly where the journal ends.
// --wait_cycles polls the in-band kMetrics endpoint until the
// daemon.cycles gauge reaches n; prints `CYCLES <n>`.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "examples/cli.h"
#include "src/daemon/daemon.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/serve/tcp_server.h"
#include "src/stream/source.h"

namespace {

// Pulls `"name":<number>` out of a kMetrics JSON body (-1 when absent).
double JsonNumber(const std::string& body, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  size_t at = body.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + at + key.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edsr;

  std::string dir;
  std::string port_flag;
  std::string strategy = "edsr";
  std::string preset = "SynthCifar10";
  std::string trigger = "count:n=64";
  std::string micro_batch_flag;
  std::string seed_flag;
  std::string memory_flag;
  std::string replay_flag;
  std::string max_cycles_flag;
  std::string train_hold_flag;
  std::string slo_spec;
  std::string duration_flag;
  std::string connect_flag;
  std::string ingest_flag;
  std::string skip_flag;
  std::string stream_spec;
  std::string wait_cycles_flag;
  std::string timeout_flag;
  bool no_fsync = false;
  bool query_last_seq = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no_fsync") == 0) {
      no_fsync = true;
      continue;
    }
    if (std::strcmp(argv[i], "--last_seq") == 0) {
      query_last_seq = true;
      continue;
    }
    if (ParseFlag(argc, argv, &i, "--dir", &dir) ||
        ParseFlag(argc, argv, &i, "--port", &port_flag) ||
        ParseFlag(argc, argv, &i, "--strategy", &strategy) ||
        ParseFlag(argc, argv, &i, "--preset", &preset) ||
        ParseFlag(argc, argv, &i, "--trigger", &trigger) ||
        ParseFlag(argc, argv, &i, "--micro_batch", &micro_batch_flag) ||
        ParseFlag(argc, argv, &i, "--seed", &seed_flag) ||
        ParseFlag(argc, argv, &i, "--memory_per_task", &memory_flag) ||
        ParseFlag(argc, argv, &i, "--replay", &replay_flag) ||
        ParseFlag(argc, argv, &i, "--max_cycles", &max_cycles_flag) ||
        ParseFlag(argc, argv, &i, "--train_hold_ms", &train_hold_flag) ||
        ParseFlag(argc, argv, &i, "--slo", &slo_spec) ||
        ParseFlag(argc, argv, &i, "--duration_ms", &duration_flag) ||
        ParseFlag(argc, argv, &i, "--connect", &connect_flag) ||
        ParseFlag(argc, argv, &i, "--ingest", &ingest_flag) ||
        ParseFlag(argc, argv, &i, "--skip", &skip_flag) ||
        ParseFlag(argc, argv, &i, "--stream", &stream_spec) ||
        ParseFlag(argc, argv, &i, "--wait_cycles", &wait_cycles_flag) ||
        ParseFlag(argc, argv, &i, "--timeout_ms", &timeout_flag)) {
      continue;
    }
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(ToInt(seed_flag, 0));

  // ---- client mode -------------------------------------------------------
  if (!connect_flag.empty()) {
    serve::ServeClient client;
    uint16_t port = static_cast<uint16_t>(ToInt(connect_flag, 0));
    util::Status connected = client.Connect(port);
    if (!connected.ok()) {
      std::fprintf(stderr, "%s\n", connected.ToString().c_str());
      return 1;
    }

    if (query_last_seq) {
      util::Result<std::string> body =
          client.Metrics(serve::MetricsMode::kJson);
      if (!body.ok()) {
        std::fprintf(stderr, "%s\n", body.status().ToString().c_str());
        return 1;
      }
      double last_seq = JsonNumber(*body, "daemon.last_seq");
      std::printf("LAST_SEQ %lld\n",
                  static_cast<long long>(last_seq < 0 ? 0 : last_seq));
      return 0;
    }

    const int64_t wait_cycles = ToInt(wait_cycles_flag, 0);
    if (wait_cycles > 0) {
      const int64_t timeout_ms = ToInt(timeout_flag, 60000);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms);
      while (std::chrono::steady_clock::now() < deadline) {
        util::Result<std::string> body =
            client.Metrics(serve::MetricsMode::kJson);
        if (body.ok()) {
          double cycles = JsonNumber(*body, "daemon.cycles");
          if (cycles >= static_cast<double>(wait_cycles)) {
            std::printf("CYCLES %lld\n",
                        static_cast<long long>(cycles));
            return 0;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      std::fprintf(stderr, "timed out waiting for %lld cycles\n",
                   static_cast<long long>(wait_cycles));
      return 1;
    }

    const int64_t ingest = ToInt(ingest_flag, 0);
    if (ingest <= 0) {
      std::fprintf(stderr, "--connect needs --ingest or --wait_cycles\n");
      return 1;
    }
    if (stream_spec.empty()) stream_spec = preset;
    util::Result<stream::StreamBundle> bundle =
        stream::MakeStreamBundle(stream_spec, seed);
    if (!bundle.ok()) {
      std::fprintf(stderr, "--stream: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    const int64_t skip = ToInt(skip_flag, 0);
    if (skip > 0) (*bundle).source->NextBatch(skip);  // resume: discard prefix
    std::vector<stream::StreamSample> samples =
        (*bundle).source->NextBatch(ingest);
    int64_t acked = 0;
    int64_t failed = 0;
    uint64_t last_seq = 0;
    for (const stream::StreamSample& sample : samples) {
      serve::ServeClient::IngestReply reply =
          client.Ingest(sample.observed_label, sample.features);
      if (reply.status.ok()) {
        ++acked;
        last_seq = reply.seq;
      } else {
        ++failed;
        if (reply.status.code() == util::StatusCode::kIoError) break;
      }
    }
    std::printf("INGEST_OK %lld %lld %llu\n", static_cast<long long>(acked),
                static_cast<long long>(failed),
                static_cast<unsigned long long>(last_seq));
    return failed == 0 ? 0 : 2;
  }

  // ---- server mode -------------------------------------------------------
  if (dir.empty()) {
    std::fprintf(stderr, "--dir is required in server mode\n");
    return 1;
  }
  daemon::DaemonOptions options;
  options.directory = dir;
  options.strategy = strategy;
  options.preset = preset;
  options.trigger_spec = trigger;
  options.micro_batch = ToInt(micro_batch_flag, 16);
  options.seed = seed;
  options.memory_per_task = ToInt(memory_flag, 8);
  options.replay_batch_size = ToInt(replay_flag, 8);
  options.max_cycles = ToInt(max_cycles_flag, -1);
  options.train_hold_us = ToInt(train_hold_flag, 0) * 1000;
  options.fsync_journal = !no_fsync;

  daemon::LearnServeDaemon daemon(options);
  util::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  std::unique_ptr<obs::SloTracker> slo;
  if (!slo_spec.empty()) {
    util::Result<std::vector<obs::SloObjective>> objectives =
        obs::ParseSloSpec(slo_spec);
    if (!objectives.ok()) {
      std::fprintf(stderr, "--slo: %s\n",
                   objectives.status().ToString().c_str());
      return 1;
    }
    slo = std::make_unique<obs::SloTracker>(
        std::move(objectives).ValueOrDie(), /*window=*/8);
    auto& metrics = obs::MetricsRegistry::Global();
    for (const char* klass : {"embed", "knn", "health", "ingest"}) {
      const std::string name(klass);
      slo->Bind(name, metrics.GetLatencyHisto("serve.lat." + name),
                metrics.GetCounter("serve.req." + name),
                metrics.GetCounter("serve.err." + name));
    }
  }

  serve::TcpServer server(daemon.handle());
  server.SetIngestHandler(daemon.MakeIngestHandler());
  if (slo != nullptr) server.SetSloTracker(slo.get());
  util::Status serving =
      server.Start(static_cast<uint16_t>(ToInt(port_flag, 0)));
  if (!serving.ok()) {
    std::fprintf(stderr, "%s\n", serving.ToString().c_str());
    return 1;
  }

  // The smoke harness parses these two lines.
  std::printf("PORT %u\n", server.port());
  std::printf("PID %d\n", static_cast<int>(::getpid()));
  std::fflush(stdout);

  const int64_t duration_ms = ToInt(duration_flag, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(duration_ms);
  while (duration_ms == 0 || std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  daemon.Stop();
  return 0;
}
