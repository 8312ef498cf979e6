// Online-daemon suites: the CRC'd ingest journal (torn-tail truncation,
// gap detection), the learn-serve cycle loop (ingest -> trigger -> train ->
// checkpoint -> hot-swap), crash-resume bit-identity, the kIngest protocol
// path (typed dim and label errors, unconfigured servers), and concurrent
// train+serve under load.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/daemon/daemon.h"
#include "src/daemon/journal.h"
#include "src/serve/tcp_server.h"
#include "src/ssl/encoder.h"
#include "src/stream/source.h"
#include "src/stream/trigger.h"
#include "src/util/rng.h"

namespace edsr::daemon {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

JournalRecord MakeRecord(uint64_t seq, int64_t dim = 4) {
  JournalRecord record;
  record.seq = seq;
  record.label = static_cast<int64_t>(seq % 3);
  record.features.assign(dim, static_cast<float>(seq) * 0.25f);
  return record;
}

// ---- IngestJournal -------------------------------------------------------

TEST(IngestJournal, RoundTripReplaysInOrder) {
  const std::string path = TestDir("journal_roundtrip") + "/j.log";
  {
    IngestJournal journal;
    std::vector<JournalRecord> replayed;
    ASSERT_TRUE(journal.Open(path, /*fsync_each=*/false, &replayed).ok());
    EXPECT_TRUE(replayed.empty());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(journal.Append(MakeRecord(seq)).ok());
    }
    EXPECT_EQ(journal.last_seq(), 5u);
  }
  IngestJournal journal;
  std::vector<JournalRecord> replayed;
  ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
  ASSERT_EQ(replayed.size(), 5u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(replayed[seq - 1].seq, seq);
    EXPECT_EQ(replayed[seq - 1].label, static_cast<int64_t>(seq % 3));
    EXPECT_EQ(replayed[seq - 1].features, MakeRecord(seq).features);
  }
  EXPECT_EQ(journal.last_seq(), 5u);
}

TEST(IngestJournal, AppendEnforcesSeqContinuity) {
  const std::string path = TestDir("journal_seq") + "/j.log";
  IngestJournal journal;
  ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
  ASSERT_TRUE(journal.Append(MakeRecord(1)).ok());
  EXPECT_FALSE(journal.Append(MakeRecord(3)).ok());  // gap
  EXPECT_FALSE(journal.Append(MakeRecord(1)).ok());  // replaying backwards
  EXPECT_TRUE(journal.Append(MakeRecord(2)).ok());
}

TEST(IngestJournal, TruncatesTornTailAndKeepsAppending) {
  const std::string path = TestDir("journal_torn") + "/j.log";
  {
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal.Append(MakeRecord(seq)).ok());
    }
  }
  const std::string intact = ReadFile(path);
  // A kill mid-write leaves a partial frame: half a header plus garbage.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(intact.data(), 7);
  }
  {
    IngestJournal journal;
    std::vector<JournalRecord> replayed;
    ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
    EXPECT_EQ(replayed.size(), 3u);
    ASSERT_TRUE(journal.Append(MakeRecord(4)).ok());
  }
  // The torn bytes are gone: a third open sees 4 intact records.
  IngestJournal journal;
  std::vector<JournalRecord> replayed;
  ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
  EXPECT_EQ(replayed.size(), 4u);
  EXPECT_EQ(journal.last_seq(), 4u);
}

TEST(IngestJournal, CorruptPayloadTruncatesFromThere) {
  const std::string path = TestDir("journal_crc") + "/j.log";
  {
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal.Append(MakeRecord(seq)).ok());
    }
  }
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip a bit inside record 2
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  IngestJournal journal;
  std::vector<JournalRecord> replayed;
  ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
  EXPECT_LT(replayed.size(), 3u);  // everything from the flipped record on
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].seq, i + 1);
  }
}

TEST(IngestJournal, SeqGapInFileIsCorruptionNotTail) {
  const std::string path = TestDir("journal_gap") + "/j.log";
  const std::string scratch = TestDir("journal_gap_scratch") + "/j.log";
  {
    // Build two separate valid journals and splice record "2" from one
    // whose seq counter was ahead: frames are intact, ordering is not.
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(1)).ok());
  }
  {
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(scratch, false, nullptr).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(1)).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(2)).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(3)).ok());
  }
  const std::string first = ReadFile(path);
  const std::string donor = ReadFile(scratch);
  const size_t frame = first.size();  // all MakeRecord frames are equal-size
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(donor.data() + 2 * frame, static_cast<std::streamsize>(frame));
  }
  IngestJournal journal;
  util::Status status = journal.Open(path, false, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
}

// ---- LearnServeDaemon ----------------------------------------------------

DaemonOptions TinyOptions(const std::string& dir) {
  DaemonOptions options;
  options.directory = dir;
  options.preset = "SynthCifar10";  // dim 192 (3x8x8), 10 classes
  options.trigger_spec = "count:n=8";
  options.micro_batch = 4;
  options.memory_per_task = 4;
  options.replay_batch_size = 4;
  options.fsync_journal = false;
  return options;
}

// Deterministic feed shared by every end-to-end test.
std::vector<stream::StreamSample> FeedSamples(int64_t n, uint64_t seed = 7) {
  auto bundle =
      std::move(stream::MakeStreamBundle("SynthCifar10|label_noise:p=0.1",
                                         seed))
          .ValueOrDie();
  return bundle.source->NextBatch(n);
}

TEST(LearnServeDaemon, IngestTrainSwapServe) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_e2e")));
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.input_dim(), 192);

  const uint64_t first_snapshot =
      daemon.handle()->registry()->Current()->id();
  std::vector<stream::StreamSample> samples = FeedSamples(16);
  for (size_t i = 0; i < samples.size(); ++i) {
    serve::IngestResult result =
        daemon.Ingest(samples[i].observed_label, samples[i].features);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.seq, i + 1);
  }
  ASSERT_TRUE(daemon.WaitForCycles(2, /*timeout_ms=*/30000));

  std::vector<stream::StreamCycleResult> cycles = daemon.cycles();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0].cause, "count");
  EXPECT_EQ(cycles[0].samples, 8);
  EXPECT_EQ(cycles[0].micro_batches, 2);
  EXPECT_EQ(cycles[1].total_samples, 16);
  EXPECT_EQ(daemon.consumed(), 16);
  EXPECT_EQ(daemon.pending(), 0);

  // Each cycle hot-swapped a fresh checkpoint under the serve path.
  serve::SnapshotHandle current = daemon.handle()->registry()->Current();
  EXPECT_GT(current->id(), first_snapshot);
  EXPECT_EQ(current->input_dim(), 192);
  serve::EmbedResult embed = daemon.handle()->Embed(samples[0].features);
  ASSERT_TRUE(embed.status.ok()) << embed.status.ToString();
  EXPECT_EQ(embed.snapshot_id, current->id());
  serve::EmbedResult knn = daemon.handle()->KnnLabel(samples[0].features);
  ASSERT_TRUE(knn.status.ok()) << knn.status.ToString();
  EXPECT_GE(knn.label, 0);  // the swapped snapshot carries the replay bank
  daemon.Stop();
}

TEST(LearnServeDaemon, RejectsWrongDimensionInProcess) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_dim")));
  ASSERT_TRUE(daemon.Start().ok());
  serve::IngestResult result = daemon.Ingest(0, std::vector<float>(3, 0.f));
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(daemon.pending(), 0);
  daemon.Stop();
}

TEST(LearnServeDaemon, RejectsOutOfRangeLabels) {
  const std::string dir = TestDir("daemon_label");
  std::vector<stream::StreamSample> samples = FeedSamples(8);
  {
    LearnServeDaemon daemon(TinyOptions(dir));
    ASSERT_TRUE(daemon.Start().ok());
    // SynthCifar10 has 20 classes: every one of these must be refused
    // before it is journaled, or the cycle thread aborts on it.
    for (int64_t label : {int64_t{-1}, int64_t{20}, int64_t{1000000}}) {
      serve::IngestResult result = daemon.Ingest(label, samples[0].features);
      EXPECT_FALSE(result.status.ok()) << "label " << label;
      EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(result.status.ToString().find("label"), std::string::npos);
    }
    EXPECT_EQ(daemon.last_seq(), 0u);
    for (const stream::StreamSample& sample : samples) {
      ASSERT_TRUE(
          daemon.Ingest(sample.observed_label, sample.features).status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(1, 30000));
    EXPECT_EQ(daemon.consumed(), 8);
    daemon.Stop();
  }
  // A bad label that is already journaled makes Start fail with a typed
  // error naming its seq, instead of crash-looping the cycle thread.
  {
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(dir + "/ingest.journal", false, nullptr).ok());
    JournalRecord record;
    record.seq = 9;
    record.label = -1;
    record.features = samples[0].features;
    ASSERT_TRUE(journal.Append(record).ok());
  }
  LearnServeDaemon daemon(TinyOptions(dir));
  util::Status status = daemon.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("seq 9"), std::string::npos)
      << status.ToString();
}

TEST(LearnServeDaemon, StartRejectsAnUnknownStrategy) {
  DaemonOptions options = TinyOptions(TestDir("daemon_bogus"));
  options.strategy = "bogus";
  LearnServeDaemon daemon(options);
  util::Status status = daemon.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("bogus"), std::string::npos)
      << status.ToString();
}

TEST(LearnServeDaemon, StartRejectsCheckpointSpecMismatch) {
  const std::string dir = TestDir("daemon_spec");
  {
    LearnServeDaemon daemon(TinyOptions(dir));
    ASSERT_TRUE(daemon.Start().ok());
    daemon.Stop();
  }
  DaemonOptions changed = TinyOptions(dir);
  changed.trigger_spec = "count:n=16";
  LearnServeDaemon daemon(changed);
  util::Status status = daemon.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("trigger"), std::string::npos);
}

TEST(LearnServeDaemon, ResumeAfterAbandonedCycleIsBitIdentical) {
  const std::string straight_dir = TestDir("daemon_straight");
  const std::string killed_dir = TestDir("daemon_killed");
  std::vector<stream::StreamSample> samples = FeedSamples(32);

  // Reference: one process consumes all 32 samples (4 cycles of 8).
  {
    LearnServeDaemon daemon(TinyOptions(straight_dir));
    ASSERT_TRUE(daemon.Start().ok());
    for (const stream::StreamSample& sample : samples) {
      ASSERT_TRUE(
          daemon.Ingest(sample.observed_label, sample.features).status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(4, 30000));
    daemon.Stop();
  }

  // Interrupted: the first process stops mid-stream with a cycle open
  // (Stop abandons it exactly as a kill would — the journal keeps the
  // samples); the second process re-runs it from the boundary.
  {
    LearnServeDaemon daemon(TinyOptions(killed_dir));
    ASSERT_TRUE(daemon.Start().ok());
    for (int64_t i = 0; i < 20; ++i) {  // 2.5 cycles
      ASSERT_TRUE(daemon.Ingest(samples[i].observed_label,
                                samples[i].features)
                      .status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(2, 30000));
    daemon.Stop();
  }
  {
    LearnServeDaemon daemon(TinyOptions(killed_dir));
    ASSERT_TRUE(daemon.Start().ok());
    EXPECT_EQ(daemon.cycles_completed(), 2);
    EXPECT_EQ(daemon.consumed(), 16);
    // The journaled tail (4 samples) was re-queued; the cycle thread may
    // already have pulled it into an open cycle, so pending is 4 or 0.
    EXPECT_LE(daemon.pending(), 4);
    for (int64_t i = 20; i < 32; ++i) {
      ASSERT_TRUE(daemon.Ingest(samples[i].observed_label,
                                samples[i].features)
                      .status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(4, 30000));
    daemon.Stop();
  }

  // Checkpoints, journals, and perf-stripped telemetry all match exactly.
  EXPECT_EQ(ReadFile(straight_dir + "/daemon.ckpt"),
            ReadFile(killed_dir + "/daemon.ckpt"));
  EXPECT_EQ(ReadFile(straight_dir + "/ingest.journal"),
            ReadFile(killed_dir + "/ingest.journal"));
  auto stripped = [](const std::string& path) {
    std::string out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      out += line.substr(0, line.find(",\"perf\"")) + "\n";
    }
    return out;
  };
  const std::string straight = stripped(straight_dir + "/daemon.jsonl");
  EXPECT_EQ(straight, stripped(killed_dir + "/daemon.jsonl"));
  EXPECT_EQ(std::count(straight.begin(), straight.end(), '\n'), 4);
}

// ---- kIngest over TCP ----------------------------------------------------

TEST(DaemonTcp, IngestDimMismatchIsTypedError) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_tcp_dim")));
  ASSERT_TRUE(daemon.Start().ok());
  serve::TcpServer server(daemon.handle());
  server.SetIngestHandler(daemon.MakeIngestHandler());
  ASSERT_TRUE(server.Start(0).ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  serve::ServeClient::IngestReply bad =
      client.Ingest(1, std::vector<float>(5, 0.f));
  ASSERT_FALSE(bad.status.ok());
  EXPECT_EQ(bad.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status.ToString().find("dim"), std::string::npos);

  // The connection survives a typed error, and a correct frame lands.
  serve::ServeClient::IngestReply good =
      client.Ingest(1, std::vector<float>(192, 0.25f));
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(good.seq, 1u);
  EXPECT_EQ(good.pending, 1);

  server.Stop();
  daemon.Stop();
}

TEST(DaemonTcp, IngestBadLabelIsTypedError) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_tcp_label")));
  ASSERT_TRUE(daemon.Start().ok());
  serve::TcpServer server(daemon.handle());
  server.SetIngestHandler(daemon.MakeIngestHandler());
  ASSERT_TRUE(server.Start(0).ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  for (int64_t label : {int64_t{-1}, int64_t{1000000}}) {
    serve::ServeClient::IngestReply bad =
        client.Ingest(label, std::vector<float>(192, 0.25f));
    EXPECT_FALSE(bad.status.ok()) << "label " << label;
    EXPECT_EQ(bad.status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.status.ToString().find("label"), std::string::npos);
  }

  // The connection survives, and good frames land and train a cycle.
  std::vector<stream::StreamSample> samples = FeedSamples(8);
  for (size_t i = 0; i < samples.size(); ++i) {
    serve::ServeClient::IngestReply good =
        client.Ingest(samples[i].observed_label, samples[i].features);
    ASSERT_TRUE(good.status.ok()) << good.status.ToString();
    EXPECT_EQ(good.seq, i + 1);
  }
  ASSERT_TRUE(daemon.WaitForCycles(1, 30000));
  EXPECT_EQ(daemon.consumed(), 8);

  server.Stop();
  daemon.Stop();
}

TEST(DaemonTcp, IngestWithoutHandlerIsNotImplemented) {
  serve::ServeOptions options;
  ssl::EncoderConfig encoder_config;
  encoder_config.mlp_dims = {12, 8, 8};
  encoder_config.projector_hidden = 8;
  encoder_config.representation_dim = 4;
  options.load.encoder = encoder_config;
  serve::ServeHandle handle(options);
  {
    util::Rng rng(1);
    handle.InstallSnapshot(ssl::Encoder::Make(encoder_config, &rng), {}, {},
                           "no-ingest");
  }
  serve::TcpServer server(&handle);
  ASSERT_TRUE(server.Start(0).ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  serve::ServeClient::IngestReply reply =
      client.Ingest(0, std::vector<float>(12, 0.f));
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), util::StatusCode::kNotImplemented);
  server.Stop();
}

// ---- concurrent train + serve -------------------------------------------

TEST(DaemonTcp, ConcurrentTrainServeNoDroppedRequests) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_stress")));
  ASSERT_TRUE(daemon.Start().ok());
  serve::TcpServer server(daemon.handle());
  server.SetIngestHandler(daemon.MakeIngestHandler());
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  // 4 client threads embed while the feed drives training cycles and
  // hot-swaps underneath them. Every single request must succeed — a
  // snapshot swap may change WHICH snapshot answers, never WHETHER.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::atomic<int> ok{0};
  std::atomic<int> metrics_ok{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([t, port, &ok, &metrics_ok, &errors] {
      serve::ServeClient client;
      util::Status connected = client.Connect(port);
      if (!connected.ok()) {
        errors[t] = connected.ToString();
        return;
      }
      util::Rng rng(100 + t);
      for (int r = 0; r < kPerThread; ++r) {
        std::vector<float> input(192);
        for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);
        serve::EmbedResult result = client.Embed(input);
        if (!result.status.ok()) {
          errors[t] = result.status.ToString();
          return;
        }
        ok.fetch_add(1);
        if (r % 16 == 0) {
          // kMetrics mid-swap: the JSON must come back whole, never torn.
          util::Result<std::string> body = client.Metrics();
          if (!body.ok()) {
            errors[t] = body.status().ToString();
            return;
          }
          const std::string& json = *body;
          if (json.empty() || json.front() != '{' || json.back() != '}') {
            errors[t] = "torn metrics body: " + json;
            return;
          }
          metrics_ok.fetch_add(1);
        }
      }
    });
  }

  std::vector<stream::StreamSample> samples = FeedSamples(32);
  for (const stream::StreamSample& sample : samples) {
    ASSERT_TRUE(
        daemon.Ingest(sample.observed_label, sample.features).status.ok());
  }
  ASSERT_TRUE(daemon.WaitForCycles(4, 60000));
  for (std::thread& thread : clients) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "client " << t;
  }
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_GT(metrics_ok.load(), 0);
  EXPECT_EQ(daemon.cycles_completed(), 4);
  EXPECT_GE(daemon.handle()->registry()->swaps(), 4);

  server.Stop();
  daemon.Stop();
}

}  // namespace
}  // namespace edsr::daemon
