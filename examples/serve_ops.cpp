// Live ops plane demo + smoke driver: a loopback serve server with the
// full observability stack attached (SLO tracker, time-series exporter,
// crash flight recorder), and a matching client that exercises the in-band
// kMetrics / kStatus introspection endpoints.
//
// Server mode (default):
//
//   ./serve_ops [--port <n>] [--input_dim <n>] [--slo "<spec>"]
//               [--timeseries_out <file.jsonl>] [--metrics_interval_ms <n>]
//               [--flight_dir <dir>] [--flight_capacity <n>]
//               [--duration_ms <n>]
//
// Installs a small in-process snapshot (no training — this binary is about
// the ops plane, not the model), starts the TCP server, prints
// `PORT <port>` and `PID <pid>` on stdout, and serves until --duration_ms
// elapses (0 = until killed). With --flight_dir the flight recorder maps
// its ring at <dir>/flight_<pid>.bin and installs signal handlers, so a
// SIGTERM leaves flight_<pid>.json behind and even kill -9 leaves the
// decodable .bin (scripts/flight_decode.py).
//
// Client mode (--connect):
//
//   ./serve_ops --connect <port> [--query metrics|status]
//               [--mode json|text] [--load <n>] [--input_dim <n>]
//
// --load sends n Embed requests (unique random inputs, exercising the
// batcher) and prints `LOAD_OK <ok> <failed>`; transport errors are counted,
// not fatal, so a load client survives its server being killed under it.
// --query prints the raw kMetrics / kStatus response body on stdout.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "examples/cli.h"
#include "src/obs/exporter.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/serve/server.h"
#include "src/serve/tcp_server.h"
#include "src/ssl/encoder.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace edsr;

  std::string port_flag;
  std::string input_dim_flag;
  std::string slo_spec;
  std::string timeseries_out;
  std::string interval_flag;
  std::string flight_dir;
  std::string flight_capacity_flag;
  std::string duration_flag;
  std::string connect_flag;
  std::string query = "metrics";
  std::string mode = "json";
  std::string load_flag;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--port", &port_flag) ||
        ParseFlag(argc, argv, &i, "--input_dim", &input_dim_flag) ||
        ParseFlag(argc, argv, &i, "--slo", &slo_spec) ||
        ParseFlag(argc, argv, &i, "--timeseries_out", &timeseries_out) ||
        ParseFlag(argc, argv, &i, "--metrics_interval_ms", &interval_flag) ||
        ParseFlag(argc, argv, &i, "--flight_dir", &flight_dir) ||
        ParseFlag(argc, argv, &i, "--flight_capacity",
                  &flight_capacity_flag) ||
        ParseFlag(argc, argv, &i, "--duration_ms", &duration_flag) ||
        ParseFlag(argc, argv, &i, "--connect", &connect_flag) ||
        ParseFlag(argc, argv, &i, "--query", &query) ||
        ParseFlag(argc, argv, &i, "--mode", &mode) ||
        ParseFlag(argc, argv, &i, "--load", &load_flag)) {
      continue;
    }
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 1;
  }
  const int64_t input_dim = ToInt(input_dim_flag, 12);
  if (input_dim < 1) {
    std::fprintf(stderr, "--input_dim must be positive\n");
    return 1;
  }

  // ---- client mode -------------------------------------------------------
  if (!connect_flag.empty()) {
    serve::ServeClient client;
    uint16_t port = static_cast<uint16_t>(ToInt(connect_flag, 0));
    util::Status connected = client.Connect(port);
    if (!connected.ok()) {
      std::fprintf(stderr, "%s\n", connected.ToString().c_str());
      return 1;
    }
    const int64_t load = ToInt(load_flag, 0);
    if (load > 0) {
      util::Rng rng(4242);
      int64_t ok = 0;
      int64_t failed = 0;
      for (int64_t r = 0; r < load; ++r) {
        std::vector<float> input(input_dim);
        for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);
        serve::EmbedResult result = client.Embed(input);
        result.status.ok() ? ++ok : ++failed;
        if (result.status.code() == util::StatusCode::kIoError) break;
      }
      std::printf("LOAD_OK %lld %lld\n", static_cast<long long>(ok),
                  static_cast<long long>(failed));
    } else {
      util::Result<std::string> body =
          query == "status"
              ? client.Status()
              : client.Metrics(mode == "text"
                                   ? serve::MetricsMode::kPrometheusText
                                   : serve::MetricsMode::kJson);
      if (!body.ok()) {
        std::fprintf(stderr, "%s\n", body.status().ToString().c_str());
        return 1;
      }
      std::printf("%s\n", (*body).c_str());
    }
    return 0;
  }

  // ---- server mode -------------------------------------------------------
  if (!flight_dir.empty()) {
    obs::FlightRecorder::Options flight;
    flight.dir = flight_dir;
    flight.capacity = static_cast<uint32_t>(ToInt(flight_capacity_flag, 4096));
    util::Status inited = obs::FlightRecorder::Global().Init(flight);
    if (!inited.ok()) {
      std::fprintf(stderr, "%s\n", inited.ToString().c_str());
      return 1;
    }
  }

  serve::ServeOptions options;
  ssl::EncoderConfig encoder_config;
  encoder_config.mlp_dims = {input_dim, 16, 16};
  encoder_config.projector_hidden = 16;
  encoder_config.representation_dim = 8;
  options.load.encoder = encoder_config;
  serve::ServeHandle handle(options);
  {
    util::Rng rng(1);
    auto encoder = ssl::Encoder::Make(encoder_config, &rng);
    encoder->SetTraining(false);
    encoder->SetRequiresGrad(false);
    // A 4-row two-class bank so KnnLabel works out of the box.
    std::vector<float> bank;
    std::vector<int64_t> labels = {0, 0, 1, 1};
    for (int64_t i = 0; i < 4; ++i) {
      bank.insert(bank.end(), input_dim, i < 2 ? -1.0f : 1.0f);
    }
    handle.InstallSnapshot(std::move(encoder), std::move(bank),
                           std::move(labels), "serve-ops");
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
    // Wire every serve request class to its instruments (get-or-create:
    // the histograms exist before the first request hits them).
    auto& metrics = obs::MetricsRegistry::Global();
    for (const char* klass : {"embed", "knn", "health"}) {
      const std::string name(klass);
      slo->Bind(name, metrics.GetLatencyHisto("serve.lat." + name),
                metrics.GetCounter("serve.req." + name),
                metrics.GetCounter("serve.err." + name));
    }
  }

  serve::TcpServer server(&handle);
  if (slo != nullptr) server.SetSloTracker(slo.get());
  util::Status started =
      server.Start(static_cast<uint16_t>(ToInt(port_flag, 0)));
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!timeseries_out.empty()) {
    obs::MetricsExporterOptions exporter_options;
    exporter_options.path = timeseries_out;
    exporter_options.interval_ms = ToInt(interval_flag, 1000);
    exporter_options.slo = slo.get();
    if (exporter_options.interval_ms < 1) {
      std::fprintf(stderr, "--metrics_interval_ms must be >= 1\n");
      return 1;
    }
    exporter = std::make_unique<obs::MetricsExporter>(exporter_options);
    util::Status exporting = exporter->Start();
    if (!exporting.ok()) {
      std::fprintf(stderr, "%s\n", exporting.ToString().c_str());
      return 1;
    }
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
  return 0;
}
