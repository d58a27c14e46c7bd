// serve_hot: an opmapd process (`opmap serve`, 2 event loops, 2 workers)
// and 4 closed-loop client connections from this process replaying a
// compare / pairs / gi / render mix whose keys all fit the daemon's result
// cache. After warm-up every answer is a cache hit, so the time goes to the
// protocol, the loops, the pool hand-off and encoding: the inverse of
// `explore`.
//
// End-to-end: setup_s = median daemon start (spawn) to first OK ping;
// latency_p50_ms = median request round trip at the client;
// throughput_per_s = the connections' request rate at that median round
// trip (4 / median); peak_rss_mb = the daemon's peak resident set.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"
#include "opmap/server/client.h"
#include "opmap/server/protocol.h"

extern char** environ;

namespace perfbench {

namespace {

namespace srv = opmap::server;

constexpr int kAttributes = 41;
constexpr int64_t kRows = 100000;
constexpr int kSetupRepeats = 9;
constexpr int kClients = 4;
constexpr int kCompareKeys = 16;
constexpr double kWarmupSeconds = 0.5;

std::string CubePath(const Args& args) { return args.dir + "/serve.opmc"; }

enum Kind { kCompare, kPairs, kGi, kRender, kNumKinds };
const char* const kKindNames[kNumKinds] = {"compare", "pairs", "gi", "render"};

// One request of the mix and the bytes the daemon must answer with.
struct Key {
  Kind kind;
  srv::Op op;
  std::string body;
  std::string expected;
};

// A running daemon.
struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;
  std::string address;
};

// The `opmap` CLI built next to this binary (see perfbench/CMakeLists.txt).
std::string OpmapBinary() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "opmap";
  std::string self(buf, static_cast<size_t>(n));
  return self.substr(0, self.rfind('/')) + "/opmap/tools/opmap";
}

// Starts the daemon and waits for its first OK ping.
Daemon StartDaemon(const Args& args, const std::string& socket_path) {
  // Close-on-exec, so later daemons do not inherit this one's pipe; dup2
  // clears the flag on the child's stdout.
  int fds[2] = {-1, -1};
  if (pipe2(fds, O_CLOEXEC) != 0) DieIf(opmap::Status::IOError("pipe"), "daemon pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  const std::string binary = OpmapBinary();
  std::vector<std::string> argv_s = {binary, "serve", "--cubes=" + CubePath(args),
                                     "--listen=unix:" + socket_path, "--loops=2",
                                     "--workers=2", "--cache-mb=16"};
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  Daemon d;
  if (posix_spawn(&d.pid, binary.c_str(), &actions, nullptr, argv.data(), environ) != 0) {
    DieIf(opmap::Status::IOError("cannot spawn " + binary), "daemon");
  }
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  d.out_fd = fds[0];
  // "opmapd listening on ADDR\n"
  std::string line;
  while (line.find('\n') == std::string::npos) {
    pollfd p{d.out_fd, POLLIN, 0};
    char chunk[256];
    if (poll(&p, 1, 20000) <= 0) DieIf(opmap::Status::IOError("no handshake line"), "daemon");
    const ssize_t n = read(d.out_fd, chunk, sizeof(chunk));
    if (n <= 0) DieIf(opmap::Status::IOError("daemon exited before listening"), "daemon");
    line.append(chunk, static_cast<size_t>(n));
  }
  const std::string prefix = "opmapd listening on ";
  const size_t at = line.find(prefix);
  if (at == std::string::npos) DieIf(opmap::Status::IOError("bad handshake: " + line), "daemon");
  d.address = line.substr(at + prefix.size(), line.find('\n', at) - at - prefix.size());
  auto client = ValueOrDie(srv::Client::Connect(d.address), "connect");
  auto pong = ValueOrDie(client->Ping(), "ping");
  DieIf(pong.ToStatus(), "ping");
  return d;
}

// SIGTERM drains the daemon; it must exit 0.
bool StopDaemon(Daemon* d) {
  kill(d->pid, SIGTERM);
  int status = 0;
  waitpid(d->pid, &status, 0);
  close(d->out_fd);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Value of "name" in the daemon's flat STATS JSON (0 when absent).
double StatOf(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const size_t at = json.find(needle);
  return at == std::string::npos ? 0 : std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::string FetchStats(const std::string& address) {
  auto client = ValueOrDie(srv::Client::Connect(address), "stats connect");
  auto reply = ValueOrDie(client->Stats(), "stats");
  DieIf(reply.ToStatus(), "stats");
  return reply.body;
}

// What one client connection saw in a window.
struct ClientLog {
  std::vector<double> rtt_us[kNumKinds];
  int64_t attempted = 0, retry_later = 0, errors = 0, mismatches = 0, bytes = 0;
  double end = 0;
  std::string first_error;
};

}  // namespace

void PrepareServeHot(const Args& args) {
  auto gen = ValueOrDie(opmap::CallLogGenerator::Make(CallLogInput(kAttributes, kRows, args.seed)),
                        "generator");
  const opmap::Dataset dataset = gen.Generate();
  const opmap::CubeStore store = ValueOrDie(opmap::CubeBuilder::FromDataset(dataset), "cube build");
  DieIf(store.SaveToFile(CubePath(args)), "save cubes");
}

void RunServeHot(const Args& args, Report* report) {
  // Set-up: daemon start to first OK ping, repeated; the last one serves.
  std::vector<double> setup_s;
  Daemon daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string sock = args.dir + "/d" + std::to_string(i) + ".sock";
    const double t0 = Now();
    daemon = StartDaemon(args, sock);
    setup_s.push_back(Now() - t0);
    if (i + 1 < kSetupRepeats) report->Check(StopDaemon(&daemon), "daemon did not drain cleanly");
  }

  // The in-process answers every response must equal, themselves checked
  // against the independent recomputation.
  std::vector<double> load_ms;
  std::unique_ptr<opmap::CubeStore> store;
  for (int i = 0; i < 5; ++i) {
    store.reset();
    const double t0 = Now();
    store = std::make_unique<opmap::CubeStore>(
        ValueOrDie(opmap::CubeStore::LoadFromFile(CubePath(args)), "load cubes"));
    load_ms.push_back((Now() - t0) * 1e3);
  }
  opmap::QueryEngine local(store.get());
  const opmap::Schema& schema = store->schema();
  Rng rng(args.seed ^ 0x5E7u);
  auto targets = [&](int attr, opmap::ValueCode v, opmap::ValueCode y) {
    return ValueOrDie(store->AttrCube(attr), "cube")->count({v, y});
  };
  std::vector<Key> keys;
  std::vector<opmap::ComparisonSpec> compare_specs;
  for (int i = 0; i < kCompareKeys; ++i) {
    opmap::ComparisonSpec spec;
    do {
      spec.attribute = rng.Below(8);
      const int m = schema.attribute(spec.attribute).domain();
      spec.value_a = rng.Below(m);
      spec.value_b = rng.Below(m);
      spec.target_class = 1 + rng.Below(2);
    } while (spec.value_a == spec.value_b || targets(spec.attribute, spec.value_a, spec.target_class) == 0 ||
             targets(spec.attribute, spec.value_b, spec.target_class) == 0);
    auto result = ValueOrDie(local.Compare(spec), "local compare");
    CheckCompare(*store, spec, *result, report);
    srv::CompareRequest req{spec.attribute, spec.value_a, spec.value_b, spec.target_class, 30};
    keys.push_back({kCompare, srv::Op::kCompare, srv::EncodeCompareRequest(req),
                    srv::EncodeResponse(srv::RespStatus::kOk, srv::EncodeComparisonResult(*result))});
    compare_specs.push_back(spec);
  }
  for (int attr = 0; attr < 2; ++attr) {
    for (opmap::ValueCode cls = 1; cls <= 2; ++cls) {
      auto pairs = ValueOrDie(local.CompareAllPairs(attr, cls, 30), "local pairs");
      CheckAllPairs(*store, attr, cls, 30, pairs, 4, report);
      keys.push_back({kPairs, srv::Op::kAllPairs,
                      srv::EncodeAllPairsRequest({attr, cls, 30}),
                      srv::EncodeResponse(srv::RespStatus::kOk, srv::EncodePairSummaries(pairs))});
    }
  }
  for (int top : {0, 10}) {
    opmap::GiOptions options;
    options.top_influence = top;
    auto gi = ValueOrDie(local.Gi(options), "local gi");
    if (top == 0) CheckInfluence(*store, *gi, report);
    srv::GiRequest req;
    req.top_influence = top;
    keys.push_back({kGi, srv::Op::kGi, srv::EncodeGiRequest(req),
                    srv::EncodeResponse(srv::RespStatus::kOk, srv::EncodeGeneralImpressions(*gi))});
  }
  // Each connection's session: open one attribute, drill into another;
  // renders at two sizes.
  struct SessionPlan {
    std::string open, drill;
    std::vector<Key> renders;
  };
  std::vector<SessionPlan> sessions(kClients);
  for (int c = 0; c < kClients; ++c) {
    SessionPlan& s = sessions[static_cast<size_t>(c)];
    s.open = schema.attribute(c % 2).name();      // PhoneModel / TimeOfCall
    s.drill = schema.attribute(2 + rng.Below(6)).name();
    opmap::ExplorationSession session(store.get());
    DieIf(session.OpenAttribute(s.open), "local open");
    DieIf(session.DrillDown(s.drill), "local drill");
    for (auto [rows, width] : {std::pair{30, 30}, std::pair{12, 20}}) {
      opmap::SessionRenderOptions options;
      options.max_rows = rows;
      options.bar_width = width;
      const std::string view = ValueOrDie(session.Render(options), "local render");
      s.renders.push_back({kRender, srv::Op::kRender, srv::EncodeRenderRequest({rows, width}),
                           srv::EncodeResponse(srv::RespStatus::kOk, view)});
    }
  }

  // One client connection. A round is 8 compares, 1 pairs, 1 gi, 2 renders.
  auto client_loop = [&](int c, double warm_until, std::atomic<int>* ready,
                         std::atomic<double>* start, double seconds, ClientLog* log) {
    auto client = srv::Client::Connect(daemon.address);
    if (!client.ok()) {
      log->attempted = log->errors = 1;
      log->first_error = client.status().ToString();
      ready->fetch_add(1);
      return;
    }
    const SessionPlan& s = sessions[static_cast<size_t>(c)];
    for (const auto& [verb, attr] : {std::pair{srv::SessionVerb::kOpen, s.open},
                                     std::pair{srv::SessionVerb::kDrill, s.drill}}) {
      srv::SessionRequest req;
      req.verb = verb;
      req.attribute = attr;
      ++log->attempted;
      auto reply = (*client)->Session(req);
      if (!reply.ok() || !reply->ok()) log->errors++, log->first_error = "session set-up";
    }
    Rng pick(args.seed * 31 + static_cast<uint64_t>(c) + 1);
    std::vector<const Key*> round;
    auto plan = [&] {
      round.clear();
      for (int i = 0; i < 8; ++i) round.push_back(&keys[static_cast<size_t>(pick.Below(kCompareKeys))]);
      round.push_back(&keys[static_cast<size_t>(kCompareKeys + pick.Below(4))]);
      round.push_back(&keys[static_cast<size_t>(kCompareKeys + 4 + pick.Below(2))]);
      for (int i = 0; i < 2; ++i) round.push_back(&s.renders[static_cast<size_t>(pick.Below(2))]);
    };
    auto send = [&](const Key& key, bool record) {
      const double t0 = Now();
      auto reply = (*client)->Call(key.op, key.body);
      const double t1 = Now();
      if (!record) return;
      ++log->attempted;
      if (!reply.ok()) {
        ++log->errors;
        if (log->first_error.empty()) log->first_error = reply.status().ToString();
        return;
      }
      if (reply->status == srv::RespStatus::kRetryLater) {
        ++log->retry_later;
        return;
      }
      // The client strips the frame; compare the payload (status + body).
      const std::string payload = srv::EncodeResponse(reply->status, reply->body);
      log->bytes += static_cast<int64_t>(payload.size());
      if (payload != key.expected) {
        ++log->mismatches;
        return;
      }
      log->rtt_us[key.kind].push_back((t1 - t0) * 1e6);
    };
    // Warm-up: every key once, then the mix until warm_until.
    for (const Key& key : keys) send(key, false);
    for (const Key& key : s.renders) send(key, false);
    while (Now() < warm_until) {
      plan();
      for (const Key* key : round) send(*key, false);
    }
    ready->fetch_add(1);
    while (start->load() == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    const double end = start->load() + seconds;
    do {
      plan();
      for (const Key* key : round) send(*key, true);
    } while (Now() < end);
    log->end = Now();
  };

  auto run_window = [&](double seconds, std::vector<ClientLog>* logs, double* window_start,
                        std::string* stats_before, std::string* stats_after) {
    logs->assign(kClients, ClientLog{});
    std::atomic<int> ready{0};
    std::atomic<double> start{0};
    const double warm_until = Now() + kWarmupSeconds;
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, c, warm_until, &ready, &start, seconds,
                           &(*logs)[static_cast<size_t>(c)]);
    }
    while (ready.load() < kClients) std::this_thread::sleep_for(std::chrono::microseconds(100));
    *stats_before = FetchStats(daemon.address);
    const double t0 = Now();
    start.store(t0);
    threads.clear();  // joins
    *stats_after = FetchStats(daemon.address);
    for (ClientLog& log : *logs) {
      report->Attempt(log.attempted);
      for (int64_t i = 0; i < log.retry_later; ++i) report->OpFailed("RETRY_LATER");
      for (int64_t i = 0; i < log.errors; ++i) report->OpFailed("request error: " + log.first_error);
      for (int64_t i = 0; i < log.mismatches; ++i) {
        report->CheckFailed("daemon response differs from the in-process answer");
      }
    }
    *window_start = t0;
  };
  auto all_rtt = [](const std::vector<ClientLog>& logs) {
    std::vector<double> v;
    for (const ClientLog& log : logs) {
      for (const auto& kind : log.rtt_us) v.insert(v.end(), kind.begin(), kind.end());
    }
    return v;
  };
  // Completions per second of wall time follow the host's stalls (the
  // p99 tail) more than the program; the rate the connections sustain at
  // the median round trip does not.
  auto rate = [&](const std::vector<ClientLog>& logs) {
    return kClients / (Median(all_rtt(logs)) / 1e6);
  };
  auto rtt_of = [](const std::vector<ClientLog>& logs, int kind) {
    std::vector<double> v;
    for (const ClientLog& log : logs) v.insert(v.end(), log.rtt_us[kind].begin(), log.rtt_us[kind].end());
    return v;
  };

  std::vector<ClientLog> logs;
  double start = 0;
  std::string before, after;
  if (!args.trace) {
    run_window(args.seconds, &logs, &start, &before, &after);
  } else {
    std::vector<ClientLog> plain;
    double plain_start = 0;
    run_window(args.seconds / 2, &plain, &plain_start, &before, &after);
    run_window(args.seconds / 2, &logs, &start, &before, &after);
    report->Set("trace.overhead_pct", (rate(plain) / rate(logs) - 1) * 100);
    double end = start;
    for (const ClientLog& log : logs) end = std::max(end, log.end);
    report->Set("server.completed_per_s", static_cast<double>(all_rtt(logs).size()) / (end - start));
    for (int k = 0; k < kNumKinds; ++k) {
      const double rtt = Median(rtt_of(logs, k));
      const double handler = StatOf(after, std::string("server.request_us.") + kKindNames[k] + ".p50");
      report->Set(std::string("server.rtt_") + kKindNames[k] + "_us", rtt);
      report->Set(std::string("server.handler_") + kKindNames[k] + "_us", handler);
      if (k == kCompare) report->Set("server.wire_overhead_us", rtt - handler);
    }
    report->Set("core.cache_hits", StatOf(after, "cache.hits") - StatOf(before, "cache.hits"));
    report->Set("core.cache_misses", StatOf(after, "cache.misses") - StatOf(before, "cache.misses"));
    int64_t bytes = 0, retry = 0;
    for (const ClientLog& log : logs) bytes += log.bytes, retry += log.retry_later;
    report->Set("server.response_bytes", static_cast<double>(bytes) / all_rtt(logs).size());
    report->Set("server.retry_later", static_cast<double>(retry));
    report->Set("cube.load_ms", Median(load_ms));

    // The same answer in process: a warm cache hit, then hit + encoding.
    std::vector<double> hit_us, inproc_us;
    for (int i = 0; i < 2000; ++i) {
      const opmap::ComparisonSpec& spec = compare_specs[static_cast<size_t>(i % kCompareKeys)];
      const double t0 = Now();
      auto hit = local.Compare(spec);
      const double t1 = Now();
      const std::string frame = srv::EncodeFrame(
          static_cast<uint64_t>(i),
          srv::EncodeResponse(srv::RespStatus::kOk, srv::EncodeComparisonResult(**hit)));
      const double t2 = Now();
      hit_us.push_back((t1 - t0) * 1e6);
      inproc_us.push_back((t2 - t0) * 1e6);
      if (frame.empty()) report->CheckFailed("empty encoded frame");
    }
    report->Set("core.cache_hit_us", Median(hit_us));
    report->Set("server.inproc_compare_us", Median(inproc_us));
    const std::vector<double> all = all_rtt(logs);
    report->Set("latency_samples", static_cast<double>(all.size()));
    if (all.size() >= 1000) report->Set("latency_p99_ms", Quantile(all, 0.99) / 1e3);
  }
  report->Set("peak_rss_mb", PeakRssMbOf(daemon.pid));
  report->Check(StopDaemon(&daemon), "daemon did not drain cleanly");
  report->Set("setup_s", Median(setup_s));
  report->Set("throughput_per_s", rate(logs));
  report->Set("latency_p50_ms", Median(all_rtt(logs)) / 1e3);
}

}  // namespace perfbench
