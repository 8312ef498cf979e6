#include "src/serve/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/tensor/simd.h"
#include "src/util/logging.h"
#include "src/util/threadpool.h"

namespace edsr::serve {

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

TcpServer::TcpServer(ServeHandle* handle) : handle_(handle) {}

TcpServer::~TcpServer() { Stop(); }

util::Status TcpServer::Start(uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return util::Status::Internal("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    util::Status status = Errno("bind 127.0.0.1:" + std::to_string(port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    util::Status status = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    util::Status status = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);

  start_us_ = TraceNowUs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  EDSR_LOG(Info) << "serve: listening on 127.0.0.1:" << port_;
  return util::Status::OK();
}

void TcpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ && !accept_thread_.joinable()) return;
    running_ = false;
  }
  if (listen_fd_ >= 0) {
    // shutdown() unblocks accept(); close() alone may leave it stuck.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

int64_t TcpServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_accepted_;
}

void TcpServer::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!running_) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        EDSR_LOG(Warning) << "serve: accept failed: " << std::strerror(errno);
        continue;
      }
      // Reap threads whose connections already hung up, so a long-lived
      // server doesn't accumulate one dead thread per past connection.
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          ::close((*it)->fd);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      ++connections_accepted_;
      EDSR_METRIC_COUNT("serve.connections", 1);
      auto conn = std::make_unique<Connection>();
      Connection* raw = conn.get();
      raw->fd = fd;
      connections_.push_back(std::move(conn));
      raw->thread = std::thread([this, raw] {
        HandleConnection(raw->fd);
        std::lock_guard<std::mutex> done_lock(mu_);
        raw->done = true;
      });
    }
  }
}

void TcpServer::HandleConnection(int fd) {
  ServeLoop(fd);
  // The fd itself is closed by the reaper (or Stop), but the peer must see
  // EOF as soon as this handler gives up on the stream — not whenever the
  // next connection happens to trigger a reap.
  ::shutdown(fd, SHUT_RDWR);
}

void TcpServer::ServeLoop(int fd) {
  std::vector<uint8_t> payload;
  while (true) {
    util::Status read = ReadFrame(fd, &payload);
    if (!read.ok()) {
      // Peer hung up (normal) or sent garbage framing. For garbage, answer
      // once so the client sees *why*, then drop the connection — after a
      // framing error the stream is no longer frame-aligned.
      if (read.code() != util::StatusCode::kIoError) {
        Response error;
        error.type = MessageType::kErrorResponse;
        error.status = read;
        WriteFrame(fd, EncodeResponse(error));
        EDSR_METRIC_COUNT("serve.protocol_errors", 1);
      }
      return;
    }
    Request request;
    util::Status decoded = DecodeRequest(payload, &request);
    if (!decoded.ok()) {
      Response error;
      error.type = MessageType::kErrorResponse;
      error.status = decoded;
      WriteFrame(fd, EncodeResponse(error));
      EDSR_METRIC_COUNT("serve.protocol_errors", 1);
      return;
    }
    // One trace context per admitted request, rid assigned here so ids are
    // strictly monotone across every connection thread.
    TraceContext trace;
    trace.rid = next_rid_.fetch_add(1, std::memory_order_relaxed);
    trace.t_accept_us = TraceNowUs();
    const bool traced = request.type == MessageType::kEmbedRequest ||
                        request.type == MessageType::kKnnLabelRequest ||
                        request.type == MessageType::kHealthRequest ||
                        request.type == MessageType::kIngestRequest;
    if (traced) {
      obs::FlightRecorder::Global().Record(
          obs::FlightRecorder::kRequest, "accept",
          static_cast<int64_t>(trace.rid),
          static_cast<int64_t>(request.type));
    }
    Response response = Dispatch(request, &trace);
    bool wrote = WriteFrame(fd, EncodeResponse(response)).ok();
    if (traced) {
      // Stamp after the frame hit the socket: the reply stage covers
      // serialization and the write, which is what the client feels.
      trace.t_reply_us = TraceNowUs();
      RecordTrace(trace);
    }
    if (!wrote) return;
  }
}

Response TcpServer::Dispatch(const Request& request, TraceContext* trace) {
  Response response;
  response.request_id = request.request_id;
  switch (request.type) {
    case MessageType::kEmbedRequest: {
      EmbedResult result = handle_->Embed(request.input, trace);
      response.type = MessageType::kEmbedResponse;
      response.status = std::move(result.status);
      response.snapshot_id = result.snapshot_id;
      response.representation = std::move(result.representation);
      break;
    }
    case MessageType::kKnnLabelRequest: {
      EmbedResult result = handle_->KnnLabel(request.input, trace);
      response.type = MessageType::kKnnLabelResponse;
      response.status = std::move(result.status);
      response.snapshot_id = result.snapshot_id;
      response.label = result.label;
      break;
    }
    case MessageType::kHealthRequest: {
      trace->klass = RequestClass::kHealth;
      trace->cache_hit = true;  // never enters the batcher; total only
      ServeHandle::HealthInfo info = handle_->Health();
      response.type = MessageType::kHealthResponse;
      response.healthy = info.ok;
      response.snapshot_id = info.snapshot_id;
      response.increments_seen = info.increments_seen;
      response.source = info.source;
      trace->error = !info.ok;
      break;
    }
    case MessageType::kStatsRequest: {
      response.type = MessageType::kStatsResponse;
      response.stats_json = handle_->StatsJson().Dump();
      break;
    }
    // kMetrics / kStatus run inline on this connection's thread — they
    // read registry and handle state only and never touch the batch
    // worker, so an ops poller cannot add latency to embedding traffic.
    case MessageType::kMetricsRequest: {
      if (slo_ != nullptr) slo_->Evaluate();
      response.type = MessageType::kMetricsResponse;
      if (request.metrics_mode == MetricsMode::kPrometheusText) {
        response.stats_json =
            obs::MetricsRegistry::Global().ToPrometheusText();
      } else {
        obs::Json body = obs::Json::Object();
        body.Set("metrics", obs::MetricsRegistry::Global().ToJson());
        body.Set("slo",
                 slo_ != nullptr ? slo_->StateJson() : obs::Json::Array());
        response.stats_json = body.Dump();
      }
      break;
    }
    case MessageType::kStatusRequest: {
      response.type = MessageType::kStatusResponse;
      response.stats_json = StatusJson().Dump();
      break;
    }
    case MessageType::kIngestRequest: {
      trace->klass = RequestClass::kIngest;
      trace->cache_hit = true;  // never enters the batcher; total only
      response.type = MessageType::kIngestResponse;
      // Dimension gate at the dispatch layer: a frame whose payload width
      // disagrees with the active snapshot must get a typed reply, never
      // reach training code that asserts on shape.
      SnapshotHandle snapshot = handle_->registry()->Current();
      if (snapshot != nullptr &&
          static_cast<int64_t>(request.input.size()) !=
              snapshot->input_dim()) {
        response.status = util::Status::InvalidArgument(
            "ingest dim " + std::to_string(request.input.size()) +
            " does not match active snapshot input dim " +
            std::to_string(snapshot->input_dim()));
        EDSR_METRIC_COUNT("serve.ingest.rejected_dim", 1);
        trace->error = true;
        break;
      }
      if (!ingest_handler_) {
        response.status = util::Status::NotImplemented(
            "this server does not accept ingest");
        EDSR_METRIC_COUNT("serve.ingest.rejected_unconfigured", 1);
        trace->error = true;
        break;
      }
      IngestResult result = ingest_handler_(request.label, request.input);
      response.status = std::move(result.status);
      response.ingest_seq = result.seq;
      response.pending = result.pending;
      trace->error = !response.status.ok();
      break;
    }
    default: {
      response.type = MessageType::kErrorResponse;
      response.status = util::Status::InvalidArgument("unhandled request type");
      break;
    }
  }
  return response;
}

obs::Json TcpServer::StatusJson() {
  obs::Json status = obs::Json::Object();
  obs::Json snap = obs::Json::Object();
  SnapshotHandle snapshot = handle_->registry()->Current();
  if (snapshot != nullptr) {
    snap.Set("id", static_cast<int64_t>(snapshot->id()));
    snap.Set("source", snapshot->source());
    snap.Set("increments_seen", snapshot->increments_seen());
  }
  status.Set("snapshot", std::move(snap));
  status.Set("swaps", handle_->registry()->swaps());
  status.Set("uptime_ms", (TraceNowUs() - start_us_) / 1000);
  status.Set("last_rid", static_cast<int64_t>(last_rid()));
  status.Set("connections_accepted", connections_accepted());
  obs::Json queue = obs::Json::Object();
  queue.Set("depth", handle_->batcher()->queue_depth());
  queue.Set("max_batch", handle_->batcher()->options().max_batch);
  queue.Set("max_queue", handle_->batcher()->options().max_queue);
  queue.Set("max_delay_us", handle_->batcher()->options().max_delay_us);
  status.Set("queue", std::move(queue));
  obs::Json cache = obs::Json::Object();
  cache.Set("size", handle_->cache()->size());
  cache.Set("capacity", handle_->cache()->capacity());
  cache.Set("hit_rate", handle_->cache()->hit_rate());
  status.Set("cache", std::move(cache));
  obs::Json dispatch = obs::Json::Object();
  dispatch.Set("threads", util::ThreadPool::Global().NumThreads());
  dispatch.Set("simd", tensor::simd::TierName(tensor::simd::ActiveTier()));
  status.Set("dispatch", std::move(dispatch));
  status.Set("slo_breached",
             slo_ != nullptr ? slo_->breached() : int64_t{0});
  return status;
}

// ---------------------------------------------------------------------------
// ServeClient

ServeClient::~ServeClient() { Close(); }

util::Status ServeClient::Connect(uint16_t port) {
  if (fd_ >= 0) return util::Status::Internal("client already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    util::Status status = Errno("connect 127.0.0.1:" + std::to_string(port));
    Close();
    return status;
  }
  return util::Status::OK();
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Response> ServeClient::Roundtrip(const Request& request) {
  if (fd_ < 0) return util::Status::IoError("client not connected");
  EDSR_RETURN_NOT_OK(WriteFrame(fd_, EncodeRequest(request)));
  std::vector<uint8_t> payload;
  EDSR_RETURN_NOT_OK(ReadFrame(fd_, &payload));
  Response response;
  EDSR_RETURN_NOT_OK(DecodeResponse(payload, &response));
  if (response.type != MessageType::kErrorResponse &&
      response.request_id != request.request_id) {
    return util::Status::Internal(
        "response id " + std::to_string(response.request_id) +
        " does not match request id " + std::to_string(request.request_id));
  }
  return response;
}

EmbedResult ServeClient::Embed(const std::vector<float>& input) {
  Request request;
  request.type = MessageType::kEmbedRequest;
  request.request_id = next_request_id_++;
  request.input = input;
  EmbedResult result;
  auto roundtrip = Roundtrip(request);
  if (!roundtrip.ok()) {
    result.status = roundtrip.status();
    return result;
  }
  Response response = std::move(roundtrip).ValueOrDie();
  result.status = std::move(response.status);
  result.snapshot_id = response.snapshot_id;
  result.representation = std::move(response.representation);
  return result;
}

EmbedResult ServeClient::KnnLabel(const std::vector<float>& input) {
  Request request;
  request.type = MessageType::kKnnLabelRequest;
  request.request_id = next_request_id_++;
  request.input = input;
  EmbedResult result;
  auto roundtrip = Roundtrip(request);
  if (!roundtrip.ok()) {
    result.status = roundtrip.status();
    return result;
  }
  Response response = std::move(roundtrip).ValueOrDie();
  result.status = std::move(response.status);
  result.snapshot_id = response.snapshot_id;
  result.label = response.label;
  return result;
}

ServeClient::HealthReply ServeClient::Health() {
  Request request;
  request.type = MessageType::kHealthRequest;
  request.request_id = next_request_id_++;
  HealthReply reply;
  auto roundtrip = Roundtrip(request);
  if (!roundtrip.ok()) {
    reply.status = roundtrip.status();
    return reply;
  }
  Response response = std::move(roundtrip).ValueOrDie();
  reply.status = std::move(response.status);
  reply.healthy = response.healthy;
  reply.snapshot_id = response.snapshot_id;
  reply.increments_seen = response.increments_seen;
  reply.source = std::move(response.source);
  return reply;
}

util::Result<std::string> ServeClient::Stats() {
  Request request;
  request.type = MessageType::kStatsRequest;
  request.request_id = next_request_id_++;
  auto roundtrip = Roundtrip(request);
  if (!roundtrip.ok()) return roundtrip.status();
  Response response = std::move(roundtrip).ValueOrDie();
  if (!response.status.ok()) return response.status;
  return std::move(response.stats_json);
}

util::Result<std::string> ServeClient::Metrics(MetricsMode mode) {
  Request request;
  request.type = MessageType::kMetricsRequest;
  request.request_id = next_request_id_++;
  request.metrics_mode = mode;
  auto roundtrip = Roundtrip(request);
  if (!roundtrip.ok()) return roundtrip.status();
  Response response = std::move(roundtrip).ValueOrDie();
  if (!response.status.ok()) return response.status;
  return std::move(response.stats_json);
}

util::Result<std::string> ServeClient::Status() {
  Request request;
  request.type = MessageType::kStatusRequest;
  request.request_id = next_request_id_++;
  auto roundtrip = Roundtrip(request);
  if (!roundtrip.ok()) return roundtrip.status();
  Response response = std::move(roundtrip).ValueOrDie();
  if (!response.status.ok()) return response.status;
  return std::move(response.stats_json);
}

ServeClient::IngestReply ServeClient::Ingest(int64_t label,
                                             const std::vector<float>& input) {
  Request request;
  request.type = MessageType::kIngestRequest;
  request.request_id = next_request_id_++;
  request.label = label;
  request.input = input;
  IngestReply reply;
  auto roundtrip = Roundtrip(request);
  if (!roundtrip.ok()) {
    reply.status = roundtrip.status();
    return reply;
  }
  Response response = std::move(roundtrip).ValueOrDie();
  reply.status = std::move(response.status);
  reply.seq = response.ingest_seq;
  reply.pending = response.pending;
  return reply;
}

util::Status ServeClient::SendRaw(const std::vector<uint8_t>& bytes) {
  if (fd_ < 0) return util::Status::IoError("client not connected");
  return WriteFrame(fd_, bytes);
}

util::Status ServeClient::ReadRawPayload(std::vector<uint8_t>* payload) {
  if (fd_ < 0) return util::Status::IoError("client not connected");
  return ReadFrame(fd_, payload);
}

}  // namespace edsr::serve
