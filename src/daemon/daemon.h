// LearnServeDaemon: the online learn-and-serve loop in one process.
//
// Composes the repo's pieces into a continual-learning *service*:
//
//   ingest — samples arrive (kIngest over TCP, or Ingest() in-process),
//            are appended to a CRC'd write-ahead journal, acked with their
//            journal seq, and queued for the cycle thread;
//   cycle  — a background thread feeds queued samples in journal order,
//            micro-batch by micro-batch, into a stream::CycleEngine (the
//            same engine the stream driver runs); when the count/drift
//            trigger fires, the engine closes the cycle (selection + noisy
//            replay), records it, and writes its EDSRBOX1 checkpoint
//            (cycle/* + strategy/* sections, atomic temp+rename);
//   swap   — each completed cycle's checkpoint is hot-swapped into the
//            ServeHandle's SnapshotRegistry; requests in flight finish on
//            the old snapshot, zero are dropped.
//
// Crash contract (kill -9 at ANY point resumes bit-identically):
//   * a sample is acked only after it is journaled; cycles consume samples
//     strictly in journal order, and cycle boundaries are a deterministic
//     function of that order (count triggers count, drift triggers probe an
//     encoder whose state is itself a function of the consumed prefix);
//   * checkpoints are written only at cycle boundaries and carry the
//     trigger state, the cycle history (whose last total is the consumed
//     sample count; no wall-clock — checkpoint files from a straight and a
//     killed+resumed run compare byte-identical), and the full strategy
//     state;
//   * restart = load last checkpoint, replay the journal past `consumed`,
//     re-run the interrupted cycle from its boundary. Training that was in
//     flight when the process died is re-done, not resumed — which is
//     exactly why it is bit-identical;
//   * the per-cycle "cycle" JSONL is rewritten from the checkpointed
//     history on startup, so a record emitted (or not) just before a crash
//     can never disagree with the checkpoint.
//
// Threading: connection threads call Ingest (journal append + queue push
// under one mutex); the cycle thread is the only code that touches the
// strategy; the serve path forwards through immutable snapshot copies. The
// owner must Stop() any TcpServer whose ingest handler points here before
// destroying the daemon.
#ifndef EDSR_SRC_DAEMON_DAEMON_H_
#define EDSR_SRC_DAEMON_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cl/strategy.h"
#include "src/daemon/journal.h"
#include "src/obs/run_record.h"
#include "src/serve/server.h"
#include "src/serve/tcp_server.h"
#include "src/stream/cycle.h"
#include "src/util/status.h"

namespace edsr::daemon {

struct DaemonOptions {
  // State directory: ingest.journal, daemon.ckpt, daemon.jsonl live here.
  std::string directory;
  // Strategy name (cl::MakeStrategy) and the preset naming the modality —
  // the daemon generates no data from it, it only takes input dim, class
  // count, and image geometry (what augmented views need).
  std::string strategy = "edsr";
  std::string preset = "SynthCifar10";
  // Consolidation cadence (stream::TriggerRegistry spec).
  std::string trigger_spec = "count:n=64";
  // Samples per optimizer step; the cycle thread only trains full
  // micro-batches, so cycle boundaries depend on journal order alone.
  int64_t micro_batch = 16;
  uint64_t seed = 0;
  // Replay buffer sizing (forwarded into the StrategyContext).
  int64_t memory_per_task = 8;
  int64_t replay_batch_size = 8;
  // Serving knobs; the snapshot-load encoder config is overwritten with the
  // strategy's architecture.
  serve::ServeOptions serve;
  // Per-cycle "cycle" JSONL records; empty disables telemetry.
  std::string metrics_filename = "daemon.jsonl";
  // fdatasync after every journal append. Tests and benches may disable it;
  // kill -9 (as opposed to power loss) never loses page-cache writes.
  bool fsync_journal = true;
  // Test hooks. train_hold_us sleeps inside every micro-batch step so a
  // torture script can land kill -9 mid-cycle; max_cycles >= 0 stops
  // consuming after that many completed cycles (samples keep journaling),
  // simulating a kill at a cycle boundary without exiting the process.
  int64_t train_hold_us = 0;
  int64_t max_cycles = -1;
};

class LearnServeDaemon {
 public:
  explicit LearnServeDaemon(const DaemonOptions& options);
  ~LearnServeDaemon();
  LearnServeDaemon(const LearnServeDaemon&) = delete;
  LearnServeDaemon& operator=(const LearnServeDaemon&) = delete;

  // Recovers journal + checkpoint (fresh start when neither exists),
  // installs the serving snapshot, and starts the cycle thread. Fails
  // cleanly on spec mismatches against an existing checkpoint.
  util::Status Start();

  // Stops the cycle thread at the next micro-batch boundary and joins it.
  // An open (un-triggered) cycle is abandoned — its samples stay journaled
  // and re-train on the next Start, same as a kill. Idempotent.
  void Stop();

  // The ingest path (thread-safe): validates dimension and label range,
  // journals, queues, acks. Wire this into a TcpServer via
  // MakeIngestHandler().
  serve::IngestResult Ingest(int64_t label, const std::vector<float>& input);
  serve::IngestHandler MakeIngestHandler();

  // The serving facade (owned by the daemon; valid after Start()).
  serve::ServeHandle* handle() { return handle_.get(); }

  // Observability / test accessors (consumed() and cycles() are valid
  // after Start()).
  int64_t input_dim() const { return input_dim_; }
  std::string checkpoint_path() const;
  std::string journal_path() const;
  std::string metrics_path() const;
  int64_t cycles_completed() const;   // closed and swapped in
  int64_t pending() const;            // journaled samples not yet consumed
  int64_t consumed() const;           // samples folded into closed cycles
  uint64_t last_seq() const;
  std::vector<stream::StreamCycleResult> cycles() const;

  // Blocks until `n` cycles have completed (or timeout); true on success.
  bool WaitForCycles(int64_t n, int64_t timeout_ms);

 private:
  void CycleLoop();
  // Closes the engine's cycle, swaps its checkpoint in, and publishes the
  // daemon gauges; `busy_seconds` is the cycle's feed time so far.
  void CloseCycle(const std::string& cause, double busy_seconds);
  void RewriteMetricsFile();

  DaemonOptions options_;
  int64_t input_dim_ = 0;
  int64_t num_classes_ = 0;

  std::unique_ptr<cl::ContinualStrategy> strategy_;
  std::unique_ptr<stream::CycleTrigger> trigger_;
  std::unique_ptr<stream::CycleEngine> engine_;
  std::unique_ptr<serve::ServeHandle> handle_;
  std::unique_ptr<obs::RunLogger> logger_;
  IngestJournal journal_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool stop_ = false;
  std::deque<JournalRecord> pending_;
  uint64_t next_seq_ = 1;
  // Cycles closed and swapped in; what WaitForCycles waits for.
  int64_t cycles_ = 0;
  std::thread cycle_thread_;
};

}  // namespace edsr::daemon

#endif  // EDSR_SRC_DAEMON_DAEMON_H_
