#include "opmap/server/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "opmap/common/metrics.h"
#include "opmap/common/trace.h"
#include "opmap/server/net.h"

namespace opmap::server {

namespace {

// server.* metric handles, resolved once (docs/OBSERVABILITY.md).
Counter* RequestsCounter() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.requests");
  return c;
}
Counter* ResponsesOk() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.responses_ok");
  return c;
}
Counter* ResponsesError() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.responses_error");
  return c;
}
Counter* ShedCounter() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.shed_retry_later");
  return c;
}
Counter* ProtocolErrors() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.protocol_errors");
  return c;
}
Counter* ConnectionsAccepted() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.connections_accepted");
  return c;
}
Counter* ConnectionsClosed() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.connections_closed");
  return c;
}
Counter* AuthRejected() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.auth_rejected");
  return c;
}
Counter* BytesRead() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.bytes_read");
  return c;
}
Counter* BytesWritten() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.bytes_written");
  return c;
}
Counter* ReloadsCounter() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.reloads");
  return c;
}
Counter* ReloadFailures() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("server.reload_failures");
  return c;
}
Gauge* ConnectionsGauge() {
  static Gauge* const g =
      MetricsRegistry::Global()->gauge("server.connections");
  return g;
}
Gauge* InflightGauge() {
  static Gauge* const g = MetricsRegistry::Global()->gauge("server.inflight");
  return g;
}
Gauge* LoopsGauge() {
  static Gauge* const g = MetricsRegistry::Global()->gauge("server.loops");
  return g;
}
Histogram* RequestHistogram() {
  static Histogram* const h =
      MetricsRegistry::Global()->histogram("server.request_us");
  return h;
}
// Per-op latency histogram. Resolved lazily from worker threads, hence the
// atomic slots (registration is idempotent and returns a stable pointer,
// so losing the publication race is harmless).
Histogram* OpHistogram(Op op) {
  static std::atomic<Histogram*> cache[9] = {};
  const auto idx = static_cast<size_t>(op);
  Histogram* h = cache[idx].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = MetricsRegistry::Global()->histogram(
        std::string("server.request_us.") + OpName(op));
    cache[idx].store(h, std::memory_order_release);
  }
  return h;
}

RespStatus RespStatusForError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
      return RespStatus::kBadRequest;
    default:
      return RespStatus::kError;
  }
}

std::string ErrorResponse(const Status& status) {
  return EncodeResponse(RespStatusForError(status),
                        EncodeErrorBody(status.code(), status.message()));
}

// A request body that fails to decode is the client's fault no matter what
// code the decoder used internally — always BAD_REQUEST.
std::string BadRequestResponse(const Status& status) {
  return EncodeResponse(RespStatus::kBadRequest,
                        EncodeErrorBody(StatusCode::kInvalidArgument,
                                        status.message()));
}

std::string ShuttingDownBody() {
  return EncodeErrorBody(StatusCode::kFailedPrecondition,
                         "server is shutting down");
}

// The default loop count clamps hardware_concurrency to a modest ceiling
// (a daemon sharing the host with its own pool workers); explicit values
// may go higher for dedicated machines.
int EffectiveLoops(const ServerOptions& options) {
  if (options.loops > 0) return std::clamp(options.loops, 1, 64);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 8);
}

// The signal-handler target. A plain atomic pointer: handlers may only
// call Server::Shutdown(), which is async-signal-safe by construction
// (one lock-free atomic store plus a write(2) per loop).
std::atomic<Server*> g_signal_server{nullptr};

extern "C" void OpmapdSignalHandler(int /*signo*/) {
  Server* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->Shutdown();
}

}  // namespace

// One accepted socket, owned by exactly one EventLoop for its whole life.
// The loop thread owns every field except `session`, which the pool
// worker of the currently-executing session-bound op owns while
// `session_executing` is true — session ops execute one at a time with
// the connection otherwise quiesced, so the session needs no lock.
//
// Pipelining: every parsed frame is assigned a per-connection sequence
// number. Stateless ops execute concurrently (up to the pipelining
// depth); their responses land in `reorder` and are emitted strictly in
// sequence order, so the wire never reveals the concurrency.
class Connection {
 public:
  uint64_t id = 0;
  int fd = -1;
  std::string in;    // unparsed request bytes
  std::string out;   // encoded, unflushed response bytes
  size_t out_off = 0;
  struct PendingFrame {
    uint64_t seq = 0;
    uint64_t request_id = 0;
    std::string payload;
  };
  std::deque<PendingFrame> pending;  // parsed, not yet dispatched
  int executing = 0;                 // dispatched, completion outstanding
  bool session_executing = false;    // one of them is session-bound
  uint64_t next_seq = 1;             // assigned to frames as they parse
  uint64_t next_emit = 1;            // next response seq to put on the wire
  std::map<uint64_t, std::string> reorder;  // seq -> encoded response frame
  bool closing = false;   // close once everything queued is emitted+flushed
  bool dead = false;      // read/write failed; close at the next sweep
  bool read_eof = false;  // peer sent its last byte (closed or half-closed)
  std::unique_ptr<ExplorationSession> session;
  uint64_t session_generation = 0;

  bool FinishedFlushing() const { return out_off >= out.size(); }
};

// One poll(2) event loop: its own listener (SO_REUSEPORT mode) or a
// hand-off queue fed by loop 0, its own wake pipe, connections, zombies
// and completion queue. Loops share the Server's engine, admission
// counter and reload barrier; they never touch each other's connections.
class EventLoop {
 public:
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    bool ok = false;  // response status was OK (counted on the loop thread)
    bool is_session = false;
    std::string frame;  // fully encoded response frame
  };

  EventLoop(Server* server, int index) : server_(server), index_(index) {}

  ~EventLoop() {
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    for (int fd : handoff_fds_) ::close(fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    const int wfd = wake_write_fd_.exchange(-1, std::memory_order_acq_rel);
    if (wfd >= 0) ::close(wfd);
  }

  Status Init(int listen_fd) {
    listen_fd_ = listen_fd;
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      return Status::IOError(std::string("pipe: ") + std::strerror(errno));
    }
    OPMAP_RETURN_NOT_OK(SetNonBlocking(pipe_fds[0], true));
    OPMAP_RETURN_NOT_OK(SetNonBlocking(pipe_fds[1], true));
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_.store(pipe_fds[1], std::memory_order_release);
    return Status::OK();
  }

  int index() const { return index_; }
  const ServerStats& stats() const { return stats_; }
  const Status& status() const { return status_; }

  // Async-signal-safe: one atomic load plus a write(2). EAGAIN means the
  // pipe already has unread bytes — the loop will wake.
  void Wake() {
    const int fd = wake_write_fd_.load(std::memory_order_acquire);
    if (fd >= 0) {
      const char byte = 'w';
      [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
  }

  // Called by loop 0 in hand-off mode; the fd's connection-count
  // reservation transfers with it.
  void PushHandoff(int fd) {
    {
      std::lock_guard<std::mutex> lock(handoff_mu_);
      handoff_fds_.push_back(fd);
    }
    Wake();
  }

  // Called by pool workers when a request finishes. Wakes the loop before
  // releasing the lock: once the loop can take the completion it may
  // finish a drain and be destroyed, closing the pipe, so the worker must
  // not touch the loop after the unlock.
  void PostCompletion(Completion done) {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(done));
    Wake();
  }

  void Run();

  // Emits a response to a connection of this loop by id (reload replies
  // and drain cancellations route through here).
  void RespondToConn(uint64_t conn_id, uint64_t seq, uint64_t request_id,
                     RespStatus status, const std::string& body) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    EmitStatus(it->second.get(), seq, request_id, status, body);
    FlushConnection(it->second.get());
  }

  // The reload barrier this loop parked behind has dropped: re-run every
  // connection's dispatch queue.
  void ResumeAfterReload() {
    parked_for_reload_ = false;
    PumpAllConnections();
  }

 private:
  void AdoptFd(int fd);
  void AcceptConnections();
  void DrainHandoff(bool adopt);
  bool PeerAllowed(int fd);
  void ReadConnection(Connection* conn);
  void FlushConnection(Connection* conn);
  void SweepClosedConnections();
  void CloseConnection(uint64_t conn_id, const char* reason);
  void HandleFrame(Connection* conn, uint64_t request_id,
                   std::string payload);
  void PumpConnection(Connection* conn);
  void PumpAllConnections();
  void DrainCompletions();
  void Emit(Connection* conn, uint64_t seq, std::string frame);
  void EmitStatus(Connection* conn, uint64_t seq, uint64_t request_id,
                  RespStatus status, const std::string& body);
  void ShedFrame(Connection* conn, uint64_t seq, uint64_t request_id,
                 const char* why);
  void CountResponse(bool ok);
  void BeginDrain();

  Server* server_;
  const int index_;
  int listen_fd_ = -1;  // -1: this loop accepts via hand-off only
  int wake_read_fd_ = -1;
  std::atomic<int> wake_write_fd_{-1};

  std::mutex handoff_mu_;
  std::vector<int> handoff_fds_;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  // Connections that closed while requests were executing: workers still
  // reference the Connection, so it is parked here and destroyed when its
  // last completion arrives.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> zombies_;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  // Requests this loop dispatched and not yet completed (the loop's share
  // of Server::inflight_); the loop exits a drain only at zero.
  int local_outstanding_ = 0;
  int next_handoff_ = 0;  // round-robin target (loop 0, hand-off mode)
  bool draining_ = false;
  bool parked_for_reload_ = false;

  ServerStats stats_;
  Status status_;

  friend class Server;
};

// --------------------------- Server lifecycle ------------------------------

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server());
  server->options_ = options;
  if (options.cubes_path.empty()) {
    return Status::InvalidArgument("ServerOptions.cubes_path is required");
  }

  CubeLoadOptions load;
  load.use_mmap = options.use_mmap;
  OPMAP_ASSIGN_OR_RETURN(
      CubeStore store,
      CubeStore::LoadFromFile(options.cubes_path, nullptr, load));
  server->store_ = std::make_unique<CubeStore>(std::move(store));
  server->engine_ = std::make_unique<QueryEngine>(
      server->store_.get(), options.cache_bytes, options.parallel);
  server->current_cubes_path_ = options.cubes_path;

  OPMAP_ASSIGN_OR_RETURN(Address addr, ParseAddress(options.listen));
  if (!options.allow_uids.empty() && !addr.is_unix) {
    return Status::InvalidArgument(
        "--allow-uid requires a unix listen address (TCP carries no peer "
        "credentials)");
  }

  const int num_loops = EffectiveLoops(options);

  // TCP with >1 loop: try one SO_REUSEPORT listener per loop so the
  // kernel shards accepts. Any failure (platform without REUSEPORT)
  // falls back to the single listener + hand-off mode below.
  std::vector<int> listen_fds;
  if (!addr.is_unix && num_loops > 1) {
    std::string bound;
    Result<int> first = ListenOn(addr, &bound, /*reuse_port=*/true);
    if (first.ok()) {
      listen_fds.push_back(*first);
      // Re-parse the resolved address so listeners 2..N bind the port the
      // OS actually assigned when the option said port 0.
      Result<Address> resolved = ParseAddress(bound);
      bool all_ok = resolved.ok();
      for (int i = 1; all_ok && i < num_loops; ++i) {
        std::string ignored;
        Result<int> fd = ListenOn(*resolved, &ignored, /*reuse_port=*/true);
        if (fd.ok()) {
          listen_fds.push_back(*fd);
        } else {
          all_ok = false;
        }
      }
      if (all_ok) {
        server->address_ = bound;
        server->sharded_listeners_ = true;
      } else {
        for (int fd : listen_fds) ::close(fd);
        listen_fds.clear();
      }
    }
  }
  if (listen_fds.empty()) {
    OPMAP_ASSIGN_OR_RETURN(int fd, ListenOn(addr, &server->address_));
    listen_fds.push_back(fd);
  }
  if (addr.is_unix) server->unix_path_ = addr.path;

  for (int i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>(server.get(), i);
    const int listen_fd = server->sharded_listeners_
                              ? listen_fds[static_cast<size_t>(i)]
                              : (i == 0 ? listen_fds[0] : -1);
    const Status st = loop->Init(listen_fd);
    if (!st.ok()) {
      // Fds not yet owned by a loop must not leak.
      if (server->sharded_listeners_) {
        for (int j = i; j < num_loops; ++j) {
          ::close(listen_fds[static_cast<size_t>(j)]);
        }
      } else if (i == 0) {
        ::close(listen_fds[0]);
      }
      return st;
    }
    server->loops_.push_back(std::move(loop));
  }
  LoopsGauge()->Set(num_loops);

  const int workers = options.workers > 0
                          ? options.workers
                          : EffectiveThreads(options.parallel);
  ThreadPool::Shared()->Reserve(workers);
  return server;
}

Server::~Server() {
  loops_.clear();  // closes every socket and pipe
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void Server::Shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->Wake();
}

void Server::WakeAllLoops() {
  for (auto& loop : loops_) loop->Wake();
}

void Server::WakeReloadOwner() {
  int owner = -1;
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    owner = reload_loop_;
  }
  if (owner >= 0 && owner < static_cast<int>(loops_.size())) {
    loops_[static_cast<size_t>(owner)]->Wake();
  }
}

void Server::InstallSignalHandlers(Server* server) {
  g_signal_server.store(server, std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = server != nullptr ? &OpmapdSignalHandler : SIG_DFL;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

ServerStats Server::stats() const {
  ServerStats total;
  for (const auto& loop : loops_) {
    const ServerStats& s = loop->stats();
    total.connections_accepted += s.connections_accepted;
    total.requests += s.requests;
    total.responses_ok += s.responses_ok;
    total.responses_error += s.responses_error;
    total.shed_retry_later += s.shed_retry_later;
    total.protocol_errors += s.protocol_errors;
    total.reloads += s.reloads;
    total.reload_failures += s.reload_failures;
    total.auth_rejected += s.auth_rejected;
  }
  return total;
}

Status Server::Serve() {
  if (options_.verbose) {
    std::fprintf(stderr, "opmapd: serving %s on %s (%zu loops, %s)\n",
                 options_.cubes_path.c_str(), address_.c_str(),
                 loops_.size(),
                 sharded_listeners_ ? "SO_REUSEPORT sharded"
                                    : "single listener");
  }
  {
    std::vector<std::thread> threads;
    threads.reserve(loops_.size() - 1);
    for (size_t i = 1; i < loops_.size(); ++i) {
      threads.emplace_back([loop = loops_[i].get()] { loop->Run(); });
    }
    loops_[0]->Run();
    for (std::thread& t : threads) t.join();
  }
  if (options_.verbose) {
    const ServerStats total = stats();
    std::fprintf(stderr,
                 "opmapd: drained (%lld requests, %lld shed, %lld protocol "
                 "errors)\n",
                 static_cast<long long>(total.requests),
                 static_cast<long long>(total.shed_retry_later),
                 static_cast<long long>(total.protocol_errors));
  }
  for (auto& loop : loops_) OPMAP_RETURN_NOT_OK(loop->status());
  return Status::OK();
}

// ------------------------- reload coordination -----------------------------

bool Server::TryClaimReload(int loop_index, uint64_t conn_id, uint64_t seq,
                            uint64_t request_id, std::string body) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (reload_pending_.load(std::memory_order_seq_cst)) return false;
  reload_loop_ = loop_index;
  reload_conn_id_ = conn_id;
  reload_seq_ = seq;
  reload_request_id_ = request_id;
  reload_body_ = std::move(body);
  // seq_cst pairs with the dispatch-side increment-then-recheck: a
  // dispatcher either observes this flag and backs out, or its inflight
  // increment is visible to the owner, whose completion will wake it.
  reload_pending_.store(true, std::memory_order_seq_cst);
  return true;
}

void Server::ReleaseInflight() {
  if (inflight_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      reload_pending_.load(std::memory_order_seq_cst)) {
    WakeReloadOwner();
  }
}

void Server::CancelReloadForDrain(int loop_index) {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  uint64_t request_id = 0;
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    if (!reload_pending_.load(std::memory_order_seq_cst) ||
        reload_loop_ != loop_index) {
      return;
    }
    conn_id = reload_conn_id_;
    seq = reload_seq_;
    request_id = reload_request_id_;
    reload_loop_ = -1;
    reload_body_.clear();
    reload_pending_.store(false, std::memory_order_seq_cst);
  }
  loops_[static_cast<size_t>(loop_index)]->RespondToConn(
      conn_id, seq, request_id, RespStatus::kShuttingDown,
      ShuttingDownBody());
  WakeAllLoops();
}

void Server::PerformReload(EventLoop* owner) {
  OPMAP_TRACE_SPAN("server.reload");
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  uint64_t request_id = 0;
  std::string body;
  std::string default_path;
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    conn_id = reload_conn_id_;
    seq = reload_seq_;
    request_id = reload_request_id_;
    body = std::move(reload_body_);
    reload_body_.clear();
    default_path = current_cubes_path_;
  }
  auto respond = [&](RespStatus status, const std::string& resp_body) {
    owner->RespondToConn(conn_id, seq, request_id, status, resp_body);
  };
  // Drops the barrier and restarts dispatch everywhere: parked loops wake
  // and re-pump their connections.
  auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(reload_mu_);
      reload_loop_ = -1;
      reload_pending_.store(false, std::memory_order_seq_cst);
    }
    WakeAllLoops();
    owner->ResumeAfterReload();
  };

  Result<ReloadRequest> req = DecodeReloadRequest(body);
  if (!req.ok()) {
    respond(RespStatusForError(req.status()),
            EncodeErrorBody(req.status().code(), req.status().message()));
    finish();
    return;
  }
  const std::string path = req->path.empty() ? default_path : req->path;
  CubeLoadOptions load;
  load.use_mmap = options_.use_mmap;
  Result<CubeStore> loaded = CubeStore::LoadFromFile(path, nullptr, load);
  if (!loaded.ok()) {
    ReloadFailures()->Increment();
    owner->stats_.reload_failures++;
    if (options_.verbose) {
      std::fprintf(stderr, "opmapd: reload of %s failed: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
    }
    respond(RespStatusForError(loaded.status()),
            EncodeErrorBody(loaded.status().code(),
                            loaded.status().message()));
    finish();
    return;
  }
  // Global inflight is 0 here: no worker holds the store, a session view,
  // or a half-built result. Sessions created against the old store are
  // invalidated lazily — EnsureSession compares its generation stamp
  // before any worker touches one again — so no loop has to reach into
  // another loop's connections. SetStore bumps the shared cache's epoch,
  // invalidating every cached cmp|/gi|/view| entry at once.
  auto fresh = std::make_unique<CubeStore>(std::move(loaded).MoveValue());
  engine_->SetStore(fresh.get());
  store_ = std::move(fresh);  // the old store is destroyed after the swap
  const uint64_t generation =
      store_generation_.fetch_add(1, std::memory_order_seq_cst) + 1;
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    current_cubes_path_ = path;
  }
  ReloadsCounter()->Increment();
  owner->stats_.reloads++;
  if (options_.verbose) {
    std::fprintf(stderr,
                 "opmapd: reloaded %s (generation %llu, %lld records)\n",
                 path.c_str(), static_cast<unsigned long long>(generation),
                 static_cast<long long>(store_->num_records()));
  }
  ReloadInfo info;
  info.store_generation = generation;
  info.num_records = store_->num_records();
  respond(RespStatus::kOk, EncodeReloadInfo(info));
  finish();
}

// ----------------------------- event loop ----------------------------------

void EventLoop::Run() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd (0 = not a conn)
  for (;;) {
    if (server_->shutdown_requested_.load(std::memory_order_acquire) &&
        !draining_) {
      BeginDrain();
    }
    DrainHandoff(/*adopt=*/true);
    DrainCompletions();
    {
      bool owns_reload = false;
      {
        std::lock_guard<std::mutex> lock(server_->reload_mu_);
        owns_reload =
            server_->reload_pending_.load(std::memory_order_seq_cst) &&
            server_->reload_loop_ == index_;
      }
      if (owns_reload &&
          server_->inflight_.load(std::memory_order_seq_cst) == 0) {
        server_->PerformReload(this);
      }
    }
    if (parked_for_reload_ &&
        !server_->reload_pending_.load(std::memory_order_seq_cst)) {
      ResumeAfterReload();
    }
    SweepClosedConnections();
    if (draining_ && local_outstanding_ == 0) {
      bool quiesced = true;
      {
        std::lock_guard<std::mutex> lock(server_->reload_mu_);
        if (server_->reload_pending_.load(std::memory_order_seq_cst) &&
            server_->reload_loop_ == index_) {
          quiesced = false;  // answer the parked reload first
        }
      }
      for (auto& [id, conn] : conns_) {
        if (!conn->FinishedFlushing() || !conn->reorder.empty()) {
          quiesced = false;
          break;
        }
      }
      if (quiesced) break;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    const bool accepting =
        !draining_ && listen_fd_ >= 0 &&
        server_->total_connections_.load(std::memory_order_relaxed) <
            server_->options_.max_connections;
    if (accepting) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn->closing && !conn->dead && !draining_) events |= POLLIN;
      if (!conn->dead && !conn->FinishedFlushing()) events |= POLLOUT;
      // A peer that closed keeps raising POLLHUP; leave its fd out while
      // its last requests finish, or the loop would spin on it.
      const int fd = events == 0 && conn->read_eof ? -1 : conn->fd;
      fds.push_back({fd, events, 0});
      fd_conn.push_back(id);
    }

    const int ready = ::poll(fds.data(), fds.size(), 500);
    if (ready < 0 && errno != EINTR) {
      status_ =
          Status::IOError(std::string("poll: ") + std::strerror(errno));
      // Never exit with workers still referencing this loop's connections.
      while (local_outstanding_ > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        DrainCompletions();
      }
      server_->Shutdown();  // take the sibling loops down too
      break;
    }
    if (ready <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (accepting && (fds[1].revents & POLLIN) != 0) AcceptConnections();
    for (size_t i = 0; i < fds.size(); ++i) {
      const uint64_t id = fd_conn[i];
      if (id == 0 || fds[i].revents == 0) continue;
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        conn->dead = true;
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) FlushConnection(conn);
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) ReadConnection(conn);
    }
  }

  // Drained: hand-off fds never adopted are closed, then every remaining
  // connection (none executing).
  DrainHandoff(/*adopt=*/false);
  SweepClosedConnections();
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConnection(id, "server drained");
}

void EventLoop::DrainHandoff(bool adopt) {
  std::vector<int> incoming;
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    incoming.swap(handoff_fds_);
  }
  for (int fd : incoming) {
    if (adopt) {
      AdoptFd(fd);
    } else {
      ::close(fd);
      server_->total_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void EventLoop::AdoptFd(int fd) {
  if (!SetNonBlocking(fd, true).ok()) {
    ::close(fd);
    server_->total_connections_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  auto conn = std::make_unique<Connection>();
  conn->id = server_->next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = fd;
  ConnectionsAccepted()->Increment();
  stats_.connections_accepted++;
  ConnectionsGauge()->Set(static_cast<int64_t>(
      server_->total_connections_.load(std::memory_order_relaxed)));
  Connection* adopted = conn.get();
  conns_[conn->id] = std::move(conn);
  // A connection handed to a draining loop still gets every frame its
  // peer already sent answered (SHUTTING_DOWN).
  if (draining_) ReadConnection(adopted);
}

bool EventLoop::PeerAllowed(int fd) {
  Result<uint32_t> uid = PeerUid(fd);
  if (uid.ok()) {
    for (uint32_t allowed : server_->options_.allow_uids) {
      if (*uid == allowed) return true;
    }
  }
  // Fail closed, and tell the peer why before hanging up: one
  // best-effort frame (request id 0 — no request was read) so the
  // client sees a status instead of a bare disconnect.
  AuthRejected()->Increment();
  stats_.auth_rejected++;
  const std::string reason =
      uid.ok() ? "peer uid " + std::to_string(*uid) + " is not allowed"
               : "peer credentials unavailable: " + uid.status().message();
  const std::string frame = EncodeFrame(
      0, EncodeResponse(
             RespStatus::kBadRequest,
             EncodeErrorBody(StatusCode::kFailedPrecondition, reason)));
  [[maybe_unused]] ssize_t n =
      ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  if (server_->options_.verbose) {
    std::fprintf(stderr, "opmapd: loop %d rejected connection (%s)\n",
                 index_, reason.c_str());
  }
  return false;
}

void EventLoop::AcceptConnections() {
  const ServerOptions& options = server_->options_;
  for (;;) {
    // Reserve a connection slot before accepting so N loops racing on
    // SO_REUSEPORT listeners cannot exceed max_connections together.
    const int reserved =
        server_->total_connections_.fetch_add(1, std::memory_order_relaxed);
    if (reserved >= options.max_connections) {
      server_->total_connections_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {  // EAGAIN (or transient error): next poll round
      server_->total_connections_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    // Peer-credential auth happens on the accepting loop, before the fd
    // is handed anywhere (unix sockets only; Start() rejects TCP).
    if (!options.allow_uids.empty() && !PeerAllowed(fd)) {
      ::close(fd);
      server_->total_connections_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (server_->sharded_listeners_ ||
        static_cast<int>(server_->loops_.size()) == 1) {
      AdoptFd(fd);
      continue;
    }
    // Hand-off mode: loop 0 owns the only listener and deals sockets
    // round-robin so every loop carries load.
    const int target =
        next_handoff_++ % static_cast<int>(server_->loops_.size());
    if (target == index_) {
      AdoptFd(fd);
    } else {
      server_->loops_[static_cast<size_t>(target)]->PushHandoff(fd);
    }
  }
}

void EventLoop::ReadConnection(Connection* conn) {
  char buf[64 << 10];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      BytesRead()->Increment(n);
      conn->in.append(buf, static_cast<size_t>(n));
      // A short read emptied the socket; a draining loop reads on to
      // EAGAIN, its last chance to see frames the peer already sent.
      if (n < static_cast<ssize_t>(sizeof(buf)) && !draining_) break;
      continue;
    }
    if (n == 0) {
      eof = true;  // frames read before the EOF are still answered below
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->dead = true;
    break;
  }

  size_t off = 0;
  while (off < conn->in.size() && !conn->closing && !conn->dead) {
    uint64_t request_id = 0;
    std::string payload;
    size_t consumed = 0;
    std::string error;
    const FrameDecode rc =
        DecodeFrame(conn->in.data() + off, conn->in.size() - off,
                    server_->options_.max_request_bytes, &request_id,
                    &payload, &consumed, &error);
    if (rc == FrameDecode::kNeedMore) break;
    if (rc == FrameDecode::kCorrupt) {
      // The stream position is untrusted from here on: answer with a
      // best-effort error frame (echoing the id when the header was
      // readable) and close once everything queued has flushed.
      ProtocolErrors()->Increment();
      stats_.protocol_errors++;
      if (server_->options_.verbose) {
        std::fprintf(stderr, "opmapd: conn %llu protocol error: %s\n",
                     static_cast<unsigned long long>(conn->id),
                     error.c_str());
      }
      EmitStatus(conn, conn->next_seq++, request_id, RespStatus::kBadRequest,
                 EncodeErrorBody(StatusCode::kInvalidArgument,
                                 "corrupt frame: " + error));
      conn->closing = true;
      off = conn->in.size();  // discard the poisoned buffer
      break;
    }
    off += consumed;
    HandleFrame(conn, request_id, std::move(payload));
  }
  conn->in.erase(0, off);
  if (eof) {
    // The peer sent its last byte: answer the frames it sent (a peer that
    // only half-closed reads the replies), then close. A partial frame
    // left in the buffer can never complete.
    conn->read_eof = true;
    conn->closing = true;
    conn->in.clear();
  }
  FlushConnection(conn);
}

void EventLoop::HandleFrame(Connection* conn, uint64_t request_id,
                            std::string payload) {
  RequestsCounter()->Increment();
  stats_.requests++;
  const uint64_t seq = conn->next_seq++;
  if (draining_) {
    EmitStatus(conn, seq, request_id, RespStatus::kShuttingDown,
               ShuttingDownBody());
    return;
  }
  if (static_cast<int>(conn->pending.size()) >=
      server_->options_.max_pending_per_connection) {
    ShedFrame(conn, seq, request_id, "connection pipeline depth exceeded");
    return;
  }
  conn->pending.push_back({seq, request_id, std::move(payload)});
  // Dispatch eagerly: the frame may start executing while later frames of
  // the same read batch are still being parsed.
  PumpConnection(conn);
}

void EventLoop::PumpConnection(Connection* conn) {
  if (conn->dead) return;
  const ServerOptions& options = server_->options_;
  while (!conn->pending.empty()) {
    Connection::PendingFrame& front = conn->pending.front();
    if (front.payload.empty() ||
        !IsKnownOp(static_cast<uint8_t>(front.payload[0]))) {
      const std::string message =
          front.payload.empty()
              ? "empty request payload (missing op byte)"
              : "unknown op byte " +
                    std::to_string(static_cast<uint8_t>(front.payload[0]));
      EmitStatus(conn, front.seq, front.request_id, RespStatus::kBadRequest,
                 EncodeErrorBody(StatusCode::kInvalidArgument, message));
      conn->pending.pop_front();
      continue;
    }
    const Op op = static_cast<Op>(front.payload[0]);
    if (op == Op::kReload) {
      if (!server_->TryClaimReload(index_, conn->id, front.seq,
                                   front.request_id,
                                   front.payload.substr(1))) {
        ShedFrame(conn, front.seq, front.request_id,
                  "another reload is already pending");
        conn->pending.pop_front();
        continue;
      }
      conn->pending.pop_front();
      // The barrier is up; later frames of every connection park until
      // the owning loop (us) swaps the store at global inflight 0.
      parked_for_reload_ = true;
      break;
    }
    if (server_->reload_pending_.load(std::memory_order_seq_cst)) {
      parked_for_reload_ = true;
      break;
    }
    const bool is_session = op == Op::kSession || op == Op::kRender;
    if (is_session) {
      // Session ops need the connection quiesced: they own the session
      // without a lock and their response must not overtake earlier ones.
      if (conn->executing > 0) break;
    } else {
      if (conn->session_executing) break;
      if (conn->executing >= options.max_pending_per_connection) break;
    }
    const int prior =
        server_->inflight_.fetch_add(1, std::memory_order_seq_cst);
    if (prior >= options.max_inflight) {
      server_->ReleaseInflight();
      ShedFrame(conn, front.seq, front.request_id,
                "server at max in-flight requests");
      conn->pending.pop_front();
      continue;
    }
    if (server_->reload_pending_.load(std::memory_order_seq_cst)) {
      // A reload claimed the barrier between the head-of-loop check and
      // our admission increment; back out so it cannot be starved.
      server_->ReleaseInflight();
      parked_for_reload_ = true;
      break;
    }
    InflightGauge()->SetMax(prior + 1);
    local_outstanding_++;
    conn->executing++;
    if (is_session) conn->session_executing = true;
    Connection::PendingFrame frame = std::move(conn->pending.front());
    conn->pending.pop_front();
    ThreadPool::Shared()->Post(
        [server = server_, loop = this, conn, is_session,
         frame = std::move(frame)]() mutable {
          server->ExecuteRequest(loop, conn, frame.seq, is_session,
                                 frame.request_id, std::move(frame.payload));
        });
  }
}

void EventLoop::PumpAllConnections() {
  for (auto& [id, conn] : conns_) {
    PumpConnection(conn.get());
    FlushConnection(conn.get());
  }
}

void EventLoop::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    server_->ReleaseInflight();
    local_outstanding_--;
    CountResponse(c.ok);
    auto zombie = zombies_.find(c.conn_id);
    if (zombie != zombies_.end()) {
      // The peer went away while we were computing; drop the response and
      // destroy the parked Connection with its last completion.
      Connection* z = zombie->second.get();
      z->executing--;
      if (c.is_session) z->session_executing = false;
      if (z->executing == 0) zombies_.erase(zombie);
      continue;
    }
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;
    Connection* conn = it->second.get();
    conn->executing--;
    if (c.is_session) conn->session_executing = false;
    Emit(conn, c.seq, std::move(c.frame));
    FlushConnection(conn);
    PumpConnection(conn);
  }
}

void EventLoop::Emit(Connection* conn, uint64_t seq, std::string frame) {
  // Responses go on the wire strictly in request order, whatever order
  // execution finished in: out-of-order frames wait in the (bounded, by
  // the pipelining depth) reorder buffer.
  conn->reorder.emplace(seq, std::move(frame));
  auto it = conn->reorder.find(conn->next_emit);
  while (it != conn->reorder.end()) {
    conn->out += it->second;
    conn->reorder.erase(it);
    conn->next_emit++;
    it = conn->reorder.find(conn->next_emit);
  }
}

void EventLoop::EmitStatus(Connection* conn, uint64_t seq,
                           uint64_t request_id, RespStatus status,
                           const std::string& body) {
  CountResponse(status == RespStatus::kOk);
  Emit(conn, seq, EncodeFrame(request_id, EncodeResponse(status, body)));
}

void EventLoop::ShedFrame(Connection* conn, uint64_t seq,
                          uint64_t request_id, const char* why) {
  ShedCounter()->Increment();
  stats_.shed_retry_later++;
  EmitStatus(conn, seq, request_id, RespStatus::kRetryLater,
             EncodeErrorBody(StatusCode::kFailedPrecondition, why));
}

void EventLoop::CountResponse(bool ok) {
  if (ok) {
    ResponsesOk()->Increment();
    stats_.responses_ok++;
  } else {
    ResponsesError()->Increment();
    stats_.responses_error++;
  }
}

void EventLoop::FlushConnection(Connection* conn) {
  if (conn->dead) {
    conn->out.clear();
    conn->out_off = 0;
    return;
  }
  while (!conn->FinishedFlushing()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      BytesWritten()->Increment(n);
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    conn->dead = true;  // swept at the next loop pass
    conn->out.clear();
    conn->out_off = 0;
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
}

void EventLoop::SweepClosedConnections() {
  std::vector<uint64_t> doomed;
  for (auto& [id, conn] : conns_) {
    if (conn->dead ||
        (conn->closing && conn->pending.empty() && conn->executing == 0 &&
         conn->reorder.empty() && conn->FinishedFlushing())) {
      doomed.push_back(id);
    }
  }
  for (uint64_t id : doomed) CloseConnection(id, "swept");
}

void EventLoop::CloseConnection(uint64_t conn_id, const char* reason) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::unique_ptr<Connection> conn = std::move(it->second);
  conns_.erase(it);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  ConnectionsClosed()->Increment();
  const int remaining =
      server_->total_connections_.fetch_sub(1, std::memory_order_relaxed) -
      1;
  ConnectionsGauge()->Set(static_cast<int64_t>(remaining));
  if (server_->options_.verbose) {
    std::fprintf(stderr, "opmapd: conn %llu closed on loop %d (%s)\n",
                 static_cast<unsigned long long>(conn_id), index_, reason);
  }
  if (conn->executing > 0) {
    // Pool workers still reference this Connection (its session); park it
    // until the last completion arrives. zombies_ is always empty once
    // local_outstanding_ reaches 0, which is what drain waits for.
    zombies_[conn_id] = std::move(conn);
  }
}

void EventLoop::BeginDrain() {
  draining_ = true;
  if (server_->options_.verbose) {
    std::fprintf(stderr, "opmapd: loop %d drain requested (%d in flight)\n",
                 index_, local_outstanding_);
  }
  // A draining loop stops polling for input, so first read every frame
  // the peers have already sent: HandleFrame answers each SHUTTING_DOWN.
  // Undispatched frames get explicit SHUTTING_DOWN responses too (in
  // request order — Emit sequences them); in-flight requests finish and
  // flush normally.
  for (auto& [id, conn] : conns_) {
    if (!conn->closing && !conn->dead) ReadConnection(conn.get());
    while (!conn->pending.empty()) {
      Connection::PendingFrame frame = std::move(conn->pending.front());
      conn->pending.pop_front();
      EmitStatus(conn.get(), frame.seq, frame.request_id,
                 RespStatus::kShuttingDown, ShuttingDownBody());
    }
    FlushConnection(conn.get());
  }
  // A reload this loop claimed and has not performed yet is answered
  // SHUTTING_DOWN; other loops' claims are theirs to settle.
  server_->CancelReloadForDrain(index_);
}

// ------------------------- pool-worker execution ---------------------------

void Server::ExecuteRequest(EventLoop* loop, Connection* conn, uint64_t seq,
                            bool is_session, uint64_t request_id,
                            std::string payload) {
  const int64_t start_us = MonotonicMicros();
  std::string response;
  {
    OPMAP_TRACE_SPAN("server.request");
    response = HandleRequestPayload(conn, payload);
  }
  const int64_t elapsed = MonotonicMicros() - start_us;
  RequestHistogram()->Record(elapsed);
  if (!payload.empty() && IsKnownOp(static_cast<uint8_t>(payload[0]))) {
    OpHistogram(static_cast<Op>(payload[0]))->Record(elapsed);
  }
  EventLoop::Completion done;
  done.conn_id = conn->id;
  done.seq = seq;
  done.is_session = is_session;
  done.ok = !response.empty() &&
            response[0] == static_cast<char>(RespStatus::kOk);
  done.frame = EncodeFrame(request_id, response);
  loop->PostCompletion(std::move(done));
}

void Server::EnsureSession(Connection* conn) {
  const uint64_t generation =
      store_generation_.load(std::memory_order_acquire);
  if (conn->session == nullptr || conn->session_generation != generation) {
    conn->session = std::make_unique<ExplorationSession>(engine_->store());
    conn->session->set_cache(engine_->cache());
    conn->session_generation = generation;
  }
}

std::string Server::HandleRequestPayload(Connection* conn,
                                         const std::string& payload) {
  const Op op = static_cast<Op>(payload[0]);
  const std::string body = payload.substr(1);
  switch (op) {
    case Op::kPing:
      return EncodeResponse(RespStatus::kOk, "");
    case Op::kSchema:
      return EncodeResponse(
          RespStatus::kOk,
          EncodeSchemaInfo(*engine_->store(),
                           store_generation_.load(
                               std::memory_order_acquire)));
    case Op::kCompare: {
      Result<CompareRequest> req = DecodeCompareRequest(body);
      if (!req.ok()) return BadRequestResponse(req.status());
      ComparisonSpec spec;
      spec.attribute = req->attribute;
      spec.value_a = req->value_a;
      spec.value_b = req->value_b;
      spec.target_class = req->target_class;
      spec.min_population = req->min_population;
      auto result = engine_->Compare(spec);
      if (!result.ok()) return ErrorResponse(result.status());
      return EncodeResponse(RespStatus::kOk,
                            EncodeComparisonResult(**result));
    }
    case Op::kAllPairs: {
      Result<AllPairsRequest> req = DecodeAllPairsRequest(body);
      if (!req.ok()) return BadRequestResponse(req.status());
      auto result = engine_->CompareAllPairs(
          req->attribute, req->target_class, req->min_population);
      if (!result.ok()) return ErrorResponse(result.status());
      return EncodeResponse(RespStatus::kOk, EncodePairSummaries(*result));
    }
    case Op::kGi: {
      Result<GiRequest> req = DecodeGiRequest(body);
      if (!req.ok()) return BadRequestResponse(req.status());
      GiOptions gi;
      gi.top_influence = req->top_influence;
      gi.mine_interactions = req->mine_interactions;
      gi.top_interactions = req->top_interactions;
      auto result = engine_->Gi(gi);
      if (!result.ok()) return ErrorResponse(result.status());
      return EncodeResponse(RespStatus::kOk,
                            EncodeGeneralImpressions(**result));
    }
    case Op::kSession: {
      Result<SessionRequest> req = DecodeSessionRequest(body);
      if (!req.ok()) return BadRequestResponse(req.status());
      EnsureSession(conn);
      ExplorationSession* session = conn->session.get();
      Status st;
      switch (req->verb) {
        case SessionVerb::kOpen:
          st = session->OpenAttribute(req->attribute);
          break;
        case SessionVerb::kDrill:
          st = session->DrillDown(req->attribute);
          break;
        case SessionVerb::kSlice:
          st = req->values.empty()
                   ? Status::InvalidArgument("slice needs a value")
                   : session->Slice(req->attribute, req->values[0]);
          break;
        case SessionVerb::kDice:
          st = session->Dice(req->attribute, req->values);
          break;
        case SessionVerb::kRollUp:
          st = session->RollUp(req->attribute);
          break;
        case SessionVerb::kBack:
          st = session->Back();
          break;
        case SessionVerb::kReset:
          session->Reset();
          break;
      }
      if (!st.ok()) return ErrorResponse(st);
      return EncodeResponse(RespStatus::kOk, session->PathString());
    }
    case Op::kRender: {
      Result<RenderRequest> req = DecodeRenderRequest(body);
      if (!req.ok()) return BadRequestResponse(req.status());
      EnsureSession(conn);
      if (!conn->session->has_view()) {
        return ErrorResponse(Status::FailedPrecondition(
            "no current view (open an attribute first)"));
      }
      SessionRenderOptions opts;
      opts.max_rows = req->max_rows;
      opts.bar_width = req->bar_width;
      auto rendered = conn->session->Render(opts);
      if (!rendered.ok()) return ErrorResponse(rendered.status());
      return EncodeResponse(RespStatus::kOk, *rendered);
    }
    case Op::kStats: {
      MetricsFormatOptions slim;
      slim.skip_zero_histograms = true;
      return EncodeResponse(
          RespStatus::kOk,
          FormatMetricsJson(MetricsRegistry::Global()->Snapshot(), slim));
    }
    case Op::kReload:
      // Handled exclusively on the loop thread; a worker never sees it.
      break;
  }
  return ErrorResponse(
      Status::Internal("unreachable op in HandleRequestPayload"));
}

}  // namespace opmap::server
