// learn_serve: the learn_serve_daemon server in its own process (EDSR,
// SynthCifar10, count:n=64, --no_fsync), driven open-loop over loopback by
// this process.
//
// run.py writes the schedule from the seed: Poisson Embed/KnnLabel requests
// over a short ladder of fixed rates, with inputs drawn Zipf-skewed from a
// fixed pool, and a fixed-rate Poisson schedule of kIngest frames that runs
// alongside so cycles, checkpoints and hot-swaps happen throughout. Three
// serve connections each take the next due request when free; the calling
// thread sends the ingest frames on a fourth. Every latency is timed from
// the request's due time, so a request that waits for a free connection is
// charged for the wait.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "harness/common.h"
#include "src/data/synthetic.h"
#include "src/serve/tcp_server.h"
#include "src/stream/source.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace edsr;

constexpr int kSetupRepeats = 11;
constexpr int kServeConnections = 3;
constexpr int64_t kCycleSamples = 64;  // the daemon's count:n=64 trigger
constexpr const char* kPreset = "SynthCifar10";
constexpr double kPollSeconds = 0.25;    // traced run: gauge sampling period
constexpr double kDrainSeconds = 30.0;

struct ServeOp {
  double t = 0.0;
  bool knn = false;
  int64_t pool_index = 0;
  int64_t step = 0;
};

struct Schedule {
  int64_t pool_size = 0;
  std::vector<ServeOp> serve;
  std::vector<double> ingest;
};

bool ReadSchedule(const std::string& path, Schedule* schedule,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open schedule " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "pool") {
      fields >> schedule->pool_size;
    } else if (tag == "S") {
      ServeOp op;
      std::string kind;
      fields >> op.t >> kind >> op.pool_index >> op.step;
      op.knn = kind == "K";
      schedule->serve.push_back(op);
    } else if (tag == "I") {
      double t = 0.0;
      fields >> t;
      schedule->ingest.push_back(t);
    }
    if (fields.fail()) {
      *error = "malformed schedule line: " + line;
      return false;
    }
  }
  if (schedule->pool_size <= 0 || schedule->serve.empty() ||
      schedule->ingest.empty()) {
    *error = "schedule needs a pool, serve requests and ingest frames";
    return false;
  }
  return true;
}

// Sleeps to just before `t`, then yields until it: a plain sleep wakes up
// tens of microseconds late (more on an idle virtual CPU), which would be
// charged to the server as latency.
void SleepUntil(double t) {
  constexpr double kSpinSeconds = 100e-6;
  const double wait = t - NowSeconds() - kSpinSeconds;
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  while (NowSeconds() < t) std::this_thread::yield();
}

// The daemon child process. Stop() (also run by the destructor) sends
// SIGTERM and reaps it, keeping its peak RSS.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool Start(const std::string& binary, const std::string& dir, uint64_t seed,
             std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string seed_text = std::to_string(seed);
    std::vector<std::string> argv_text = {
        binary,    "--dir",     dir,        "--port",         "0",
        "--seed",  seed_text,   "--strategy", "edsr",         "--preset",
        kPreset,   "--trigger", "count:n=64", "--no_fsync"};
    std::vector<char*> argv;
    for (std::string& arg : argv_text) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    stdout_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      *error = "cannot start " + binary;
      return false;
    }
    // The server prints "PORT <n>" once it accepts connections.
    std::string text;
    const double deadline = NowSeconds() + 60.0;
    while (text.find('\n') == std::string::npos && NowSeconds() < deadline) {
      pollfd p{stdout_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buffer[256];
      ssize_t n = read(stdout_fd_, buffer, sizeof(buffer));
      if (n <= 0) break;
      text.append(buffer, static_cast<size_t>(n));
    }
    unsigned port = 0;
    if (std::sscanf(text.c_str(), "PORT %u", &port) != 1) {
      *error = "daemon did not report its port";
      return false;
    }
    port_ = static_cast<uint16_t>(port);
    return true;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      rusage usage{};
      wait4(pid_, &status, 0, &usage);
      peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  double peak_rss_mb_ = 0.0;
};

// Connects and waits for the first healthy Health reply; returns its
// snapshot id (0 on timeout).
uint64_t WaitHealthy(uint16_t port, double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  while (NowSeconds() < deadline) {
    serve::ServeClient client;
    if (client.Connect(port).ok()) {
      serve::ServeClient::HealthReply reply = client.Health();
      if (reply.status.ok() && reply.healthy) return reply.snapshot_id;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return 0;
}

double JsonField(const obs::Json& root, const char* section,
                 const std::string& name, const char* field) {
  const obs::Json* s = root.Find(section);
  const obs::Json* m = s != nullptr ? s->Find(name) : nullptr;
  if (m == nullptr) return 0.0;
  if (field == nullptr) return m->AsDouble();
  const obs::Json* f = m->Find(field);
  return f != nullptr ? f->AsDouble() : 0.0;
}

struct ServeRecord {
  double due = 0, pickup = 0, send = 0, done = 0;
  uint64_t snapshot = 0;
  int64_t label = -1;
  bool ok = false;
};

struct IngestRecord {
  double due = 0, done = 0;
  uint64_t seq = 0;
  bool ok = false;
};

struct PassResult {
  std::string error;
  uint64_t initial_snapshot = 0;
  std::vector<ServeRecord> serve;
  std::vector<IngestRecord> ingest;
  bool snapshots_monotone = true;
  int64_t acked = 0;
  double consumed = -1;
  double final_snapshot = 0;
  std::vector<double> pending, queue_depth;  // traced: sampled gauges
  obs::Json metrics = obs::Json::Object();   // final kMetrics snapshot
  double peak_rss_mb = 0;
};

// The registry snapshot of an in-band kMetrics reply ({"metrics":{..},..}).
obs::Json FetchMetrics(serve::ServeClient* client) {
  obs::Json body = obs::Json::Object();
  util::Result<std::string> text = client->Metrics(serve::MetricsMode::kJson);
  if (!text.ok() || !obs::Json::Parse(*text, &body)) return obs::Json::Object();
  const obs::Json* metrics = body.Find("metrics");
  return metrics != nullptr ? *metrics : obs::Json::Object();
}

PassResult RunPass(const Args& args, const Schedule& schedule,
                   const std::vector<std::vector<float>>& pool,
                   const std::vector<stream::StreamSample>& ingest_samples,
                   bool traced, Report* report, bool measure_setup) {
  PassResult result;
  std::unique_ptr<DaemonProcess> daemon;
  const int starts = measure_setup ? kSetupRepeats : 1;
  for (int s = 0; s < starts; ++s) {
    if (daemon != nullptr) daemon->Stop();
    const std::string dir = args.workdir + "/daemon";
    std::filesystem::remove_all(dir);
    daemon = std::make_unique<DaemonProcess>();
    const double t0 = NowSeconds();
    if (!daemon->Start(args.daemon, dir, args.seed, &result.error)) {
      return result;
    }
    result.initial_snapshot = WaitHealthy(daemon->port(), 30.0);
    if (result.initial_snapshot == 0) {
      result.error = "daemon never reported healthy";
      return result;
    }
    if (measure_setup) report->Sample("setup_s", NowSeconds() - t0);
  }

  serve::ServeClient ingest_client;
  if (!ingest_client.Connect(daemon->port()).ok()) {
    result.error = "ingest connection failed";
    return result;
  }
  std::vector<std::unique_ptr<serve::ServeClient>> clients;
  for (int c = 0; c < kServeConnections; ++c) {
    clients.push_back(std::make_unique<serve::ServeClient>());
    if (!clients.back()->Connect(daemon->port()).ok()) {
      result.error = "serve connection failed";
      return result;
    }
  }

  result.serve.resize(schedule.serve.size());
  result.ingest.resize(schedule.ingest.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> monotone{true};
  const double t0 = NowSeconds() + 0.05;
  {
    std::vector<std::jthread> workers;
    for (int c = 0; c < kServeConnections; ++c) {
      workers.emplace_back([&, c] {
        serve::ServeClient* client = clients[c].get();
        uint64_t last_snapshot = 0;
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= schedule.serve.size()) break;
          const ServeOp& op = schedule.serve[i];
          ServeRecord& r = result.serve[i];
          r.pickup = NowSeconds();
          r.due = t0 + op.t;
          SleepUntil(r.due);
          r.send = NowSeconds();
          const std::vector<float>& input = pool[op.pool_index];
          serve::EmbedResult reply =
              op.knn ? client->KnnLabel(input) : client->Embed(input);
          r.done = NowSeconds();
          r.ok = reply.status.ok();
          r.snapshot = reply.snapshot_id;
          r.label = reply.label;
          if (r.ok) {
            if (reply.snapshot_id < last_snapshot) monotone = false;
            last_snapshot = reply.snapshot_id;
          }
        }
      });
    }
    // This thread sends the ingest frames, and in a traced run samples the
    // daemon's queue gauges over the same connection.
    double next_poll = t0;
    auto poll_gauges = [&] {
      obs::Json m = FetchMetrics(&ingest_client);
      result.pending.push_back(JsonField(m, "gauges", "daemon.pending", nullptr));
      result.queue_depth.push_back(
          JsonField(m, "gauges", "serve.queue_depth", nullptr));
      next_poll += kPollSeconds;
    };
    for (size_t i = 0; i < schedule.ingest.size(); ++i) {
      IngestRecord& r = result.ingest[i];
      r.due = t0 + schedule.ingest[i];
      if (traced && NowSeconds() >= next_poll) poll_gauges();
      SleepUntil(r.due);
      const stream::StreamSample& sample = ingest_samples[i];
      serve::ServeClient::IngestReply reply =
          ingest_client.Ingest(sample.observed_label, sample.features);
      r.done = NowSeconds();
      r.ok = reply.status.ok();
      r.seq = reply.seq;
      if (r.ok) ++result.acked;
    }
    const double serve_end = t0 + schedule.serve.back().t;
    while (traced && next_poll < serve_end) {
      SleepUntil(next_poll);
      poll_gauges();
    }
  }  // joins the serve workers
  result.snapshots_monotone = monotone;

  // Drain: every acked sample must end up in a closed cycle.
  const double drain_deadline = NowSeconds() + kDrainSeconds;
  while (NowSeconds() < drain_deadline) {
    obs::Json m = FetchMetrics(&ingest_client);
    result.consumed = JsonField(m, "gauges", "daemon.consumed", nullptr);
    if (result.consumed >= static_cast<double>(result.acked)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  serve::ServeClient::HealthReply health = ingest_client.Health();
  result.final_snapshot = static_cast<double>(health.snapshot_id);
  result.metrics = FetchMetrics(&ingest_client);
  ingest_client.Close();
  for (auto& client : clients) client->Close();
  daemon->Stop();
  result.peak_rss_mb = daemon->peak_rss_mb();
  return result;
}

// Ack of the sample that closes cycle c -> first serve reply carrying the
// snapshot that cycle produced (initial id + c + 1). Only cycles closed
// while the ladder runs below capacity count: those closed before serving
// starts (the warm-up) have no reply to wait for, and in the last step, which
// is past capacity by design, every core is busy and freshness would measure
// the host's scheduler.
std::vector<double> FreshnessMs(const PassResult& pass,
                                const Schedule& schedule) {
  std::vector<std::pair<double, uint64_t>> replies;
  double serving_starts = pass.serve.front().due;
  double overload_starts = pass.serve.back().due;
  const int64_t top_step = schedule.serve.back().step;
  for (size_t i = 0; i < pass.serve.size(); ++i) {
    const ServeRecord& r = pass.serve[i];
    if (r.ok) replies.emplace_back(r.done, r.snapshot);
    serving_starts = std::min(serving_starts, r.due);
    if (schedule.serve[i].step == top_step) {
      overload_starts = std::min(overload_starts, r.due);
    }
  }
  std::sort(replies.begin(), replies.end());
  std::map<uint64_t, double> first_seen;
  uint64_t highest = pass.initial_snapshot;
  for (const auto& [done, snapshot] : replies) {
    for (uint64_t id = highest + 1; id <= snapshot; ++id) first_seen[id] = done;
    highest = std::max(highest, snapshot);
  }
  std::vector<double> freshness;
  for (const IngestRecord& r : pass.ingest) {
    if (!r.ok || r.seq % kCycleSamples != 0 || r.done < serving_starts ||
        r.done >= overload_starts) {
      continue;
    }
    const uint64_t target = pass.initial_snapshot + r.seq / kCycleSamples;
    auto it = first_seen.find(target);
    if (it != first_seen.end()) freshness.push_back((it->second - r.done) * 1e3);
  }
  return freshness;
}

// Per ladder step k, as values serve.step<k>.*: requests, successful
// replies, latency p50 / p99 from due time, the median latency of the step's
// last tenth (a growing backlog shows there), and replies per wall second.
// Plus the generator's lag p99 and the mean client round trip over the pass.
// run.py decides which steps meet the latency limit. The top steps send
// hundreds of thousands of requests, so the report carries these summaries
// rather than per-request samples.
void ReportServeSummary(const PassResult& pass, const Schedule& schedule,
                        const std::string& prefix, Report* report) {
  std::map<int64_t, std::vector<size_t>> steps;
  for (size_t i = 0; i < schedule.serve.size(); ++i) {
    steps[schedule.serve[i].step].push_back(i);
  }
  std::vector<double> lag, rtt;
  for (const auto& [step, indices] : steps) {
    std::vector<double> latency;
    double first_due = pass.serve[indices.front()].due, last_done = 0.0;
    int64_t ok = 0;
    for (size_t i : indices) {
      const ServeRecord& r = pass.serve[i];
      latency.push_back((r.done - r.due) * 1e6);
      lag.push_back((r.send - std::max(r.due, r.pickup)) * 1e6);
      rtt.push_back((r.done - r.send) * 1e6);
      first_due = std::min(first_due, r.due);
      last_done = std::max(last_done, r.done);
      if (r.ok) ++ok;
    }
    const size_t tenth = std::max<size_t>(1, latency.size() / 10);
    const std::vector<double> last(latency.end() - tenth, latency.end());
    const std::string name = prefix + "serve.step" + std::to_string(step) + ".";
    report->Value(name + "count", static_cast<double>(latency.size()));
    report->Value(name + "ok", static_cast<double>(ok));
    report->Value(name + "p50_us", Median(latency));
    report->Value(name + "p99_us", Percentile(latency, 99.0));
    report->Value(name + "last_tenth_p50_us", Median(last));
    report->Value(name + "replies_per_s",
                  static_cast<double>(ok) / (last_done - first_due));
  }
  report->Value(prefix + "serve.lag_p99_us", Percentile(lag, 99.0));
  double rtt_sum = 0.0;
  for (double v : rtt) rtt_sum += v;
  report->Value(prefix + "serve.rtt_mean_us",
                rtt_sum / static_cast<double>(rtt.size()));
}

void ReportPass(const PassResult& pass, const Schedule& schedule,
                const std::vector<int64_t>& pool_labels, int64_t num_classes,
                const std::string& prefix, Report* report) {
  int64_t knn_total = 0, knn_correct = 0, failed = 0;
  bool labels_in_range = true;
  ReportServeSummary(pass, schedule, prefix, report);
  for (size_t i = 0; i < pass.serve.size(); ++i) {
    const ServeRecord& r = pass.serve[i];
    const ServeOp& op = schedule.serve[i];
    if (!r.ok) ++failed;
    if (r.ok && op.knn) {
      ++knn_total;
      labels_in_range =
          labels_in_range && r.label >= 0 && r.label < num_classes;
      if (r.label == pool_labels[op.pool_index]) ++knn_correct;
    }
  }
  for (const IngestRecord& r : pass.ingest) {
    report->Sample(prefix + "ingest_ack_us", (r.done - r.due) * 1e6);
    if (!r.ok) ++failed;
  }
  report->Samples(prefix + "freshness_ms", FreshnessMs(pass, schedule));
  report->Attempted(static_cast<int64_t>(pass.serve.size() +
                                         pass.ingest.size()));
  report->Failed(failed);

  report->Check(prefix + "serve.no_dropped_replies", failed == 0,
                std::to_string(failed) + " failed of " +
                    std::to_string(pass.serve.size() + pass.ingest.size()));
  report->Check(prefix + "serve.snapshot_id_monotone", pass.snapshots_monotone,
                "snapshot id never decreases on a connection");
  report->Check(prefix + "serve.knn_labels_in_range", labels_in_range,
                std::to_string(knn_total) + " KnnLabel replies");
  report->Check(prefix + "daemon.consumed_equals_acked",
                pass.consumed == static_cast<double>(pass.acked),
                "consumed " + std::to_string(pass.consumed) + ", acked " +
                    std::to_string(pass.acked));
  const double expected_snapshot =
      static_cast<double>(pass.initial_snapshot) +
      static_cast<double>(pass.acked / kCycleSamples);
  report->Check(prefix + "daemon.one_swap_per_cycle",
                pass.final_snapshot == expected_snapshot,
                "final snapshot " + std::to_string(pass.final_snapshot) +
                    ", expected " + std::to_string(expected_snapshot));
  const double knn_acc = knn_total > 0
                             ? 100.0 * static_cast<double>(knn_correct) /
                                   static_cast<double>(knn_total)
                             : 0.0;
  const double chance = 100.0 / static_cast<double>(num_classes);
  report->Check(prefix + "serve.knn_acc_above_chance", knn_acc > 1.5 * chance,
                "KnnLabel Acc " + std::to_string(knn_acc) + "% vs chance " +
                    std::to_string(chance) + "%");
  if (prefix.empty()) {
    report->Sample("quality_pct", knn_acc);
    report->Value("peak_rss_mb", pass.peak_rss_mb);
  }
}

}  // namespace

void RunLearnServe(const Args& args, Report* report) {
  Schedule schedule;
  std::string error;
  if (args.daemon.empty() || !ReadSchedule(args.schedule, &schedule, &error)) {
    report->Check("serve.schedule", false,
                  error.empty() ? "--daemon is required" : error);
    return;
  }
  if (schedule.ingest.size() % kCycleSamples != 0) {
    report->Check("serve.schedule", false,
                  "ingest frames must fill whole cycles");
    return;
  }

  // Inputs: the serve pool is the first rows of the preset's held-out
  // split; ingest frames are the preset's stream, drawn from the seed.
  data::SyntheticImagePair data =
      data::MakeSyntheticImageData(*data::ImagePresetConfig(kPreset, args.seed));
  if (schedule.pool_size > data.test.size()) {
    report->Check("serve.schedule", false, "pool larger than the test split");
    return;
  }
  std::vector<std::vector<float>> pool;
  std::vector<int64_t> pool_labels;
  for (int64_t i = 0; i < schedule.pool_size; ++i) {
    const float* row = data.test.Row(i);
    pool.emplace_back(row, row + data.test.dim());
    pool_labels.push_back(data.test.Label(i));
  }
  for (const ServeOp& op : schedule.serve) {
    if (op.pool_index < 0 || op.pool_index >= schedule.pool_size) {
      report->Check("serve.schedule", false, "pool index out of range");
      return;
    }
  }
  stream::StreamBundle bundle =
      std::move(stream::MakeStreamBundle(kPreset, args.seed)).ValueOrDie();
  std::vector<stream::StreamSample> ingest_samples =
      bundle.source->NextBatch(static_cast<int64_t>(schedule.ingest.size()));

  // The traced run repeats the pass against a fresh daemon with gauge
  // sampling on. The daemon itself is never traced, so this pass reports no
  // tracing overhead; it only keeps the polling out of the measured pass.
  PassResult pass = RunPass(args, schedule, pool, ingest_samples,
                            /*traced=*/false, report, /*measure_setup=*/true);
  if (!pass.error.empty()) {
    report->Check("serve.run", false, pass.error);
    return;
  }
  ReportPass(pass, schedule, pool_labels, data.test.num_classes(), "",
             report);
  if (!args.trace) return;

  PassResult traced = RunPass(args, schedule, pool, ingest_samples,
                              /*traced=*/true, report, /*measure_setup=*/false);
  if (!traced.error.empty()) {
    report->Check("serve.traced_run", false, traced.error);
    return;
  }
  ReportPass(traced, schedule, pool_labels, data.test.num_classes(),
             "traced.", report);
  report->Samples("daemon_pending", traced.pending);
  report->Samples("serve_queue_depth", traced.queue_depth);
  const obs::Json& m = traced.metrics;
  for (const char* stage : {"accept", "queue", "forward", "reply"}) {
    const std::string name = std::string("serve.stage.") + stage;
    report->Value(name + ".p50", JsonField(m, "latency", name, "p50_us"));
    report->Value(name + ".p99", JsonField(m, "latency", name, "p99_us"));
  }
  for (const char* klass : {"embed", "knn"}) {
    const std::string name = std::string("serve.lat.") + klass;
    report->Value(name + ".sum", JsonField(m, "latency", name, "sum_us"));
    report->Value(name + ".count", JsonField(m, "latency", name, "count"));
  }
  report->Value("serve.batch_size_mean",
                JsonField(m, "histograms", "serve.batch_size", "mean"));
  report->Value("serve.cache.hits",
                JsonField(m, "counters", "serve.cache.hits", nullptr));
  report->Value("serve.cache.misses",
                JsonField(m, "counters", "serve.cache.misses", nullptr));
  report->Value("serve.overloaded",
                JsonField(m, "counters", "serve.overloaded", nullptr));
  report->Value("serve.swaps", JsonField(m, "counters", "serve.swaps", nullptr));
  report->Value("daemon.cycle_ms",
                JsonField(m, "latency", "daemon.lat.cycle", "p50_us") / 1e3);
  report->Value("daemon.ingest_us",
                JsonField(m, "latency", "daemon.lat.ingest", "p99_us"));
}

}  // namespace perfbench
