// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// serve_ingest: webrbd_serve with --store, driven open loop by this
// process at a ladder of fixed absolute rates. Every 200 body is compared
// byte for byte with RenderExtractionJson of an in-process extraction of
// the same page, and the daemon's store is read back and checked against
// the records those extractions produce.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <iostream>
#include <mutex>
#include <thread>

#include "extract/extraction_context.h"
#include "extract/record_sink.h"
#include "extract/recognizer_cache.h"
#include "gen/site_template.h"
#include "gen/sites.h"
#include "http_client.h"
#include "ontology/bundled.h"
#include "serve/http.h"
#include "serve/service.h"
#include "store/file_interface.h"
#include "util/rng.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using webrbd::Result;
using webrbd::Status;

// The ladder: fixed absolute rates, chosen against the daemon's measured
// capacity on a 4-core host with 2 I/O threads (about 180-250 obituary
// pages/s when saturated) and never derived at run time. Latency is
// reported at "low" (light load) and "high" (loaded, about a quarter of
// capacity, where queueing shows but does not yet amplify the host's own
// speed drift). "peak" is the highest rate today's daemon sustains with
// margin, and "over" lies far beyond saturation: its completion rate is
// the daemon's throughput, which tracks the daemon's capacity up to
// 800/s. Goodput (the highest rate that meets the latency limit) reads
// "peak" today. "over" has the longest window: a shared host's speed
// drifts over tens of seconds, and throughput at saturation follows that
// drift more than light-load latency does. Every rung opens with an
// unmeasured lead-in at its own rate: the first second of a load step on a
// shared host can run at a fraction of the steady capacity, and that
// transient belongs to the host, not to the program.
struct Rung {
  const char* name;
  double rate_per_s;
  double share_of_run;  // measured window, as a share of --seconds
};
constexpr Rung kLadder[] = {
    {"low", 30, 0.06},
    {"high", 60, 0.36},
    {"peak", 120, 0.05},
    {"over", 800, 0.41},
};
constexpr double kLeadInShare = 0.03;  // per rung, of --seconds
constexpr double kLatencyLimitMs = 100;
// Latency quantiles are medians over windows of this many requests (3.3 s
// at the "high" rate), throughput a median over windows of completions.
constexpr size_t kLatencyWindow = 200;
constexpr size_t kThroughputWindow = 100;
// Connections = daemon I/O threads = half the host's 4 cores, which leaves
// the generator and the host room and keeps the saturated rate steadier
// than 4 threads do on a shared host.
constexpr int kConnections = 2;
constexpr int kPages = 48;
// Requests the generator keeps waiting for a connection at most. Past
// saturation it holds back the next due request until one is taken (its
// latency still runs from its due time), so the "over" rung keeps the
// daemon busy without a backlog that outlives the rung.
constexpr size_t kMaxBacklog = 64;

// --- Pages and their in-process oracle ---------------------------------------

struct Page {
  std::string html;
  std::string request;        // serialized POST /extract
  std::string expected_body;  // RenderExtractionJson of the oracle run
  uint64_t digest = 0;        // DocumentDigest of the oracle run
  uint64_t record_hash_sum = 0;
  uint64_t records = 0;
};

struct Oracle {
  std::vector<Page> pages;
  uint64_t input_digest = 0;
  uint64_t output_digest = 0;
  size_t bytes = 0;
};

webrbd::ContextOptions ServingOptions(webrbd::RecognizerCache* cache) {
  // What webrbd_serve's defaults configure: production limits, automatic
  // memoization (no template cache for single documents).
  webrbd::ContextOptions options;
  options.cache = cache;
  options.discovery.limits = webrbd::robust::DocumentLimits::Production();
  return options;
}

Result<Oracle> BuildOracle(uint64_t seed, const webrbd::Ontology& ontology) {
  webrbd::RecognizerCache cache;
  auto context =
      webrbd::ExtractionContext::Create(ontology, ServingOptions(&cache));
  if (!context.ok()) return context.status();
  std::vector<webrbd::gen::SiteTemplate> sites =
      webrbd::gen::CalibrationSites();
  for (const auto& site : webrbd::gen::TestSites(webrbd::Domain::kObituaries)) {
    sites.push_back(site);
  }
  webrbd::Rng rng(seed, /*stream=*/0x5e7e);
  Oracle oracle;
  std::vector<uint64_t> digests;
  // Pages whose extraction fails are skipped: the workload measures the
  // serving path, and every request it sends must succeed.
  for (int attempts = 0; oracle.pages.size() < kPages && attempts < 4 * kPages;
       ++attempts) {
    const auto& site = sites[rng.Below(static_cast<uint32_t>(sites.size()))];
    Page page;
    page.html = webrbd::gen::RenderDocument(site, webrbd::Domain::kObituaries,
                                            static_cast<int>(rng.Below(1u << 20)))
                    .html;
    webrbd::CatalogSink catalog(context->instance_generator());
    DigestSink digest;
    webrbd::TeeSink tee({&catalog, &digest});
    auto outcome = context->ExtractDocumentInto(page.html, tee);
    if (!outcome.ok()) continue;
    auto tables = catalog.TakeCatalog();
    if (!tables.ok()) continue;
    page.expected_body = webrbd::serve::RenderExtractionJson(*outcome, *tables);
    page.digest = DocumentDigest("sep:" + outcome->separator,
                                 digest.DocumentHash(0));
    for (uint64_t hash : digest.record_hashes()) page.record_hash_sum += hash;
    page.records = digest.record_hashes().size();
    page.request = BuildHttpRequest("POST", "/extract", page.html);
    oracle.bytes += page.html.size();
    digests.push_back(page.digest);
    oracle.pages.push_back(std::move(page));
  }
  if (oracle.pages.size() < kPages) {
    return Status::Internal("too few obituary pages extract cleanly");
  }
  std::vector<std::string_view> inputs;
  for (const Page& page : oracle.pages) inputs.emplace_back(page.html);
  oracle.input_digest = InputDigest(inputs);
  oracle.output_digest = CorpusDigest(digests);
  return oracle;
}

// --- The daemon ----------------------------------------------------------------

// One webrbd_serve child process. The destructor kills and reaps a child
// that was not shut down, so no early return leaves a process behind.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }

  // Spawns the daemon and waits for its first /healthz 200.
  Status Start(const std::string& binary, const std::string& store_path,
               const std::string& log_path) {
    int out[2];
    if (::pipe(out) != 0) return Status::Internal("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const std::string threads = std::to_string(kConnections);
    std::vector<std::string> args = {binary,         "--port",   "0",
                                     "--io-threads", threads,    "--store",
                                     store_path};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int spawned = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    stdout_fd_ = out[0];
    if (spawned != 0) {
      pid_ = -1;
      return Status::Internal("cannot spawn " + binary);
    }
    // "webrbd_serve listening on 127.0.0.1:PORT\n"
    std::string line;
    const int64_t deadline = NowNs() + 30'000'000'000;
    while (line.find('\n') == std::string::npos) {
      pollfd fd{stdout_fd_, POLLIN, 0};
      const int remaining_ms =
          static_cast<int>(std::max<int64_t>(0, deadline - NowNs()) / 1'000'000);
      if (::poll(&fd, 1, remaining_ms) <= 0) {
        return Status::Internal("daemon did not report its port");
      }
      char buffer[256];
      const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
      if (n <= 0) return Status::Internal("daemon exited during start-up");
      line.append(buffer, static_cast<size_t>(n));
    }
    const size_t colon = line.rfind(':');
    port_ = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
    if (port_ <= 0) return Status::Internal("bad start-up line: " + line);
    const std::string healthz = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    while (NowNs() < deadline) {
      HttpConnection connection;
      std::string body;
      if (connection.Connect(port_, 2000) &&
          connection.RoundTrip(healthz, &body) == 200) {
        return Status::OK();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Internal("daemon never answered /healthz");
  }

  // SIGTERM, wait for the drain, reap. Returns the child's peak RSS in MB.
  Result<double> Shutdown() {
    if (pid_ <= 0) return Status::Internal("daemon not running");
    ::kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 60'000'000'000;
    int status = 0;
    rusage usage{};
    for (;;) {
      const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
      if (done == pid_) break;
      if (done < 0) return Status::Internal("wait4 failed");
      if (NowNs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &usage);
        pid_ = -1;
        return Status::Internal("daemon did not drain within 60 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("daemon exited uncleanly");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

// --- The open-loop generator ---------------------------------------------------

struct RungRun {
  RungResult verdict;                  // over the measured window
  std::vector<RequestTiming> measured;  // requests due after the lead-in
  size_t attempted = 0;                // lead-in included
  size_t rejected = 0;                 // 503s
  size_t wrong_bodies = 0;
  size_t transport_errors = 0;
  double throughput_per_s = 0;  // WindowedRate of the measured 200s
  std::vector<uint64_t> ok_per_page;  // 200 responses per page
};

// Releases requests at their due times into a queue that the keep-alive
// `connections` drain. Latency runs from the due time, so time a request
// waits for a free connection counts against the system. The rung closes
// at the end of its schedule: requests the generator could not release by
// then are not sent.
RungRun RunRung(const Rung& rung, double lead_in_s, double seconds,
                const Oracle& oracle, size_t first_page,
                std::vector<HttpConnection>& connections) {
  RungRun run;
  run.ok_per_page.assign(oracle.pages.size(), 0);
  OpenLoopSchedule schedule{rung.rate_per_s, 0};
  const size_t lead_in = schedule.CountWithin(lead_in_s);
  const size_t total = lead_in + std::max<size_t>(1, schedule.CountWithin(seconds));
  std::vector<RequestTiming> timings(total);
  std::vector<int> statuses(total, 0);

  std::mutex mu;
  std::condition_variable ready;
  std::condition_variable taken;
  std::deque<size_t> queue;
  bool closed = false;

  auto worker = [&](HttpConnection& connection) {
    std::string body;
    for (;;) {
      size_t k = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        ready.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        k = queue.front();
        queue.pop_front();
      }
      taken.notify_one();
      const Page& page = oracle.pages[(first_page + k) % oracle.pages.size()];
      const int status = connection.connected()
                             ? connection.RoundTrip(page.request, &body)
                             : 0;
      timings[k].done_ns = NowNs();
      statuses[k] = status;
      timings[k].ok = status == 200 && body == page.expected_body;
    }
  };
  std::vector<std::thread> workers;
  for (HttpConnection& connection : connections) {
    workers.emplace_back(worker, std::ref(connection));
  }

  schedule.start_ns = NowNs() + 2'000'000;
  const auto closes = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(schedule.DueNs(total)));
  size_t dispatched = 0;
  for (; dispatched < total; ++dispatched) {
    const int64_t due = schedule.DueNs(dispatched);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    std::unique_lock<std::mutex> lock(mu);
    if (!taken.wait_until(lock, closes,
                          [&] { return queue.size() < kMaxBacklog; })) {
      break;
    }
    timings[dispatched].due_ns = due;
    timings[dispatched].dispatched_ns = NowNs();
    queue.push_back(dispatched);
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  ready.notify_all();
  for (std::thread& thread : workers) thread.join();

  run.attempted = dispatched;
  std::vector<int64_t> completions;
  for (size_t k = 0; k < dispatched; ++k) {
    const size_t page = (first_page + k) % oracle.pages.size();
    if (statuses[k] == 200) ++run.ok_per_page[page];
    if (statuses[k] == 503) ++run.rejected;
    if (statuses[k] == 0) ++run.transport_errors;
    if (statuses[k] == 200 && !timings[k].ok) ++run.wrong_bodies;
    if (timings[k].ok && k >= lead_in) completions.push_back(timings[k].done_ns);
  }
  run.throughput_per_s = WindowedRate(std::move(completions), kThroughputWindow);
  if (dispatched > lead_in) {
    run.measured.assign(timings.begin() + static_cast<ptrdiff_t>(lead_in),
                        timings.begin() + static_cast<ptrdiff_t>(dispatched));
  }
  run.verdict = EvaluateRung(run.measured, rung.rate_per_s, kLatencyLimitMs,
                            kLatencyWindow);
  if (dispatched < total) run.verdict.meets_limit = false;
  return run;
}

// --- In-process layers (traced run) -----------------------------------------------

struct InProcess {
  double http_parse_ns = 0;
  double handle_ms = 0;
  double baseline_s = 0;  // untraced extraction loop over the pages
  double replay_s = 0;    // the same loop through the traced mirror
  uint64_t replay_mismatches = 0;
};

InProcess MeasureInProcess(const Oracle& oracle,
                           const webrbd::Ontology& ontology,
                           const RunConfig& config, Tracer& tracer,
                           TraceCounters& counters, RunResult& result) {
  InProcess measured;
  // HTTP parse of every request the generator sends.
  {
    Tracer parse_tracer;
    size_t parsed = 0;
    for (int rep = 0; rep < 20; ++rep) {
      for (const Page& page : oracle.pages) {
        ScopedSpan span(parse_tracer, Layer::kHttpParse);
        auto outcome = webrbd::serve::ParseHttpRequest(
            page.request, webrbd::serve::HttpParseLimits{});
        if (outcome.state != webrbd::serve::HttpParseState::kComplete) {
          result.Fail("ParseHttpRequest rejected a benchmark request");
        }
        ++parsed;
      }
    }
    measured.http_parse_ns =
        static_cast<double>(
            parse_tracer.SelfNs()[static_cast<size_t>(Layer::kHttpParse)]) /
        static_cast<double>(parsed);
  }

  // ExtractionService::Handle in process, ingesting into its own store.
  {
    auto store = OpenFreshStore(config.work_dir + "/serve-inprocess.store");
    if (!store.ok()) {
      result.Fail("store open: " + store.status().ToString());
      return measured;
    }
    webrbd::StoreSink sink(store->get());
    webrbd::serve::ServiceOptions options;
    options.context.discovery.limits =
        webrbd::robust::DocumentLimits::Production();
    options.ingest_sink = &sink;
    auto service = webrbd::serve::ExtractionService::Create(
        webrbd::BundledOntologyDsl(webrbd::Domain::kObituaries),
        std::move(options));
    if (!service.ok()) {
      result.Fail("ExtractionService: " + service.status().ToString());
      return measured;
    }
    std::vector<webrbd::serve::HttpRequest> requests;
    for (const Page& page : oracle.pages) {
      requests.push_back(webrbd::serve::ParseHttpRequest(
                             page.request, webrbd::serve::HttpParseLimits{})
                             .request);
    }
    Tracer handle_tracer;
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t i = 0; i < requests.size(); ++i) {
        ScopedSpan span(handle_tracer, Layer::kServeHandle);
        webrbd::serve::HttpResponse response = (*service)->Handle(requests[i]);
        if (response.status != 200 ||
            response.body != oracle.pages[i].expected_body) {
          result.Fail("in-process Handle differs from the oracle");
        }
      }
    }
    measured.handle_ms =
        static_cast<double>(
            handle_tracer.SelfNs()[static_cast<size_t>(Layer::kServeHandle)]) /
        1e6 / static_cast<double>(3 * requests.size());
  }

  // The pipeline under the request: untraced loop, then the traced mirror.
  webrbd::RecognizerCache cache;
  auto context =
      webrbd::ExtractionContext::Create(ontology, ServingOptions(&cache));
  if (!context.ok()) {
    result.Fail("context: " + context.status().ToString());
    return measured;
  }
  const std::string store_path = config.work_dir + "/serve-replay.store";
  std::vector<double> baseline;
  std::vector<double> replay;
  const int64_t replay_start = NowNs();
  while (replay.empty() ||
         static_cast<double>(NowNs() - replay_start) / 1e9 < config.seconds / 4) {
    {
      auto store = OpenFreshStore(store_path);
      if (!store.ok()) break;
      webrbd::StoreSink sink(store->get());
      webrbd::DocumentArena arena;
      const int64_t start = NowNs();
      bool stored = true;
      for (const Page& page : oracle.pages) {
        arena.Reset();
        webrbd::BufferSink buffer;
        (void)context->ExtractDocumentInto(page.html, arena, buffer);
        for (const auto& record : buffer.records()) {
          stored = sink.Write(record).ok() && stored;
        }
      }
      if (!sink.Flush().ok() || !stored) result.Fail("baseline store write failed");
      baseline.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    auto store = OpenFreshStore(store_path);
    if (!store.ok()) break;
    webrbd::StoreSink sink(store->get());
    webrbd::DocumentArena arena;
    const int64_t start = NowNs();
    for (const Page& page : oracle.pages) {
      arena.Reset();
      webrbd::BufferSink buffer;
      auto separator = TracedExtractDocument(*context, nullptr, page.html,
                                             arena, buffer, 0, tracer, counters);
      DigestSink digest;
      for (const auto& record : buffer.records()) {
        (void)digest.Write(record);
        ScopedSpan span(tracer, Layer::kStoreAppend);
        if (!sink.Write(record).ok()) result.Fail("replay store write failed");
      }
      const std::string outcome =
          separator.ok() ? "sep:" + *separator : "err";
      if (DocumentDigest(outcome, digest.DocumentHash(0)) != page.digest) {
        ++measured.replay_mismatches;
      }
    }
    {
      ScopedSpan span(tracer, Layer::kStoreFlush);
      if (!sink.Flush().ok()) result.Fail("replay store flush failed");
    }
    replay.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  measured.baseline_s = Median(baseline);
  measured.replay_s = Median(replay);
  return measured;
}

// --- Store read-back -------------------------------------------------------------

struct StoreReadBack {
  uint64_t records = 0;
  uint64_t hash_sum = 0;
  uint64_t user_bytes = 0;  // entity, field names and values
  std::vector<uint64_t> key_hashes;
};

Result<std::unique_ptr<webrbd::store::RecordStore>> OpenExistingStore(
    const std::string& path) {
  auto file = webrbd::store::OpenPosixFile(path, /*create=*/false);
  if (!file.ok()) return file.status();
  return webrbd::store::RecordStore::Open(std::move(file).value());
}

StoreReadBack ReadBack(webrbd::store::RecordStore& store) {
  StoreReadBack read;
  webrbd::store::RecordStore::Iterator it = store.Scan();
  webrbd::store::StoredRecord record;
  while (it.Next(&record)) {
    const uint64_t hash = HashRecord(record);
    read.key_hashes.push_back(hash);
    read.hash_sum += hash;
    ++read.records;
    read.user_bytes += record.entity.size();
    for (const auto& [name, value] : record.fields) {
      read.user_bytes += name.size() + value.size();
    }
  }
  return read;
}

}  // namespace

RunResult RunServeIngest(const RunConfig& config) {
  RunResult result;
  auto ontology = webrbd::BundledOntology(webrbd::Domain::kObituaries);
  if (!ontology.ok()) {
    result.Fail("ontology: " + ontology.status().ToString());
    return result;
  }
  auto built = BuildOracle(config.seed, *ontology);
  if (!built.ok()) {
    result.Fail("oracle: " + built.status().ToString());
    return result;
  }
  const Oracle& oracle = *built;
  const std::string output_digest = HexDigest(oracle.output_digest);
  std::string rates = "[";
  for (const Rung& rung : kLadder) {
    if (rates.size() > 1) rates += ", ";
    rates += std::to_string(static_cast<int>(rung.rate_per_s));
  }
  rates += "]";
  PrintManifest(
      "serve_ingest",
      {{"input_digest", "\"" + HexDigest(oracle.input_digest) + "\""},
       {"documents", std::to_string(oracle.pages.size())},
       {"bytes", std::to_string(oracle.bytes)},
       {"shares", "{\"obituaries\": 1}"},
       {"connections", std::to_string(kConnections)},
       {"ladder_rates_per_s", rates},
       {"latency_limit_ms", std::to_string(kLatencyLimitMs)},
       {"output_digest", "\"" + output_digest + "\""}});
  if (config.pinned_digest.has_value() && *config.pinned_digest != output_digest) {
    result.Fail("serve_ingest output digest " + output_digest +
                " differs from the recorded " + *config.pinned_digest);
  }

  // Set-up: spawn to first /healthz 200, 21 times; the last daemon serves
  // the ladder.
  const std::string store_path = config.work_dir + "/serve.store";
  const std::string log_path = config.work_dir + "/serve.log";
  std::unique_ptr<Daemon> daemon;
  Status started = Status::OK();
  auto teardown = [&]() {
    if (daemon != nullptr && !daemon->Shutdown().ok()) {
      started = Status::Internal("a set-up daemon did not shut down cleanly");
    }
    std::error_code ignored;
    std::filesystem::remove(store_path, ignored);
    daemon = std::make_unique<Daemon>();
  };
  const double setup_s = MedianSetupSeconds(21, teardown, [&]() {
    if (started.ok()) {
      started = daemon->Start(config.serve_binary, store_path, log_path);
    }
  });
  if (!started.ok()) {
    result.Fail("daemon start: " + started.ToString());
    return result;
  }

  // The generator's keep-alive connections, opened once for the whole
  // ladder. Warm-up, outside the timed window: every page once, the
  // connections in parallel.
  std::vector<HttpConnection> connections(kConnections);
  for (HttpConnection& connection : connections) {
    if (!connection.Connect(daemon->port(), 30'000)) {
      result.Fail("cannot connect to the daemon");
      return result;
    }
  }
  std::atomic<int> warm_up_errors{0};
  {
    std::vector<std::thread> warmers;
    for (size_t c = 0; c < connections.size(); ++c) {
      warmers.emplace_back([&, c]() {
        std::string body;
        for (size_t p = c; p < oracle.pages.size(); p += connections.size()) {
          if (connections[c].RoundTrip(oracle.pages[p].request, &body) != 200 ||
              body != oracle.pages[p].expected_body) {
            ++warm_up_errors;
          }
        }
      });
    }
    for (std::thread& warmer : warmers) warmer.join();
  }
  if (warm_up_errors > 0) {
    result.Fail("warm-up responses differ from the oracle");
    return result;
  }
  uint64_t expected_records = 0;
  uint64_t expected_hash_sum = 0;
  for (const Page& page : oracle.pages) {
    expected_records += page.records;
    expected_hash_sum += page.record_hash_sum;
  }

  std::vector<RungRun> rungs;
  size_t first_page = 0;
  for (const Rung& rung : kLadder) {
    rungs.push_back(RunRung(rung, config.seconds * kLeadInShare,
                            config.seconds * rung.share_of_run, oracle,
                            first_page, connections));
    const RungRun& run = rungs.back();
    first_page += run.attempted;
    for (size_t p = 0; p < oracle.pages.size(); ++p) {
      expected_records += run.ok_per_page[p] * oracle.pages[p].records;
      expected_hash_sum += run.ok_per_page[p] * oracle.pages[p].record_hash_sum;
    }
    result.attempted += run.attempted;
    result.failed += run.transport_errors + run.rejected + run.wrong_bodies;
    std::cerr << "perfbench: serve rung " << rung.name << " at "
              << rung.rate_per_s << "/s: " << run.attempted << " sent, p50 "
              << run.verdict.p50_ms.value << " ms, p99 "
              << run.verdict.p99_ms.value << " ms over "
              << run.verdict.p99_ms.samples << " samples ("
              << run.verdict.p99_ms.beyond << " beyond), "
              << run.throughput_per_s << " completions/s, "
              << (run.verdict.meets_limit ? "meets" : "misses")
              << " the limit\n";
  }
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) +
                " requests failed, were rejected or returned wrong bodies");
  }

  for (HttpConnection& connection : connections) connection.Close();
  auto peak_rss = daemon->Shutdown();
  if (!peak_rss.ok()) {
    result.Fail("daemon shutdown: " + peak_rss.status().ToString());
    return result;
  }
  auto store = OpenExistingStore(store_path);
  if (!store.ok()) {
    result.Fail("store reopen: " + store.status().ToString());
    return result;
  }
  const StoreReadBack read = ReadBack(**store);
  if (read.records != expected_records || read.hash_sum != expected_hash_sum) {
    result.Fail("daemon store holds " + std::to_string(read.records) +
                " records, expected " + std::to_string(expected_records) +
                " (or their contents differ)");
  }

  const RungRun& low = rungs[0];
  const RungRun& high = rungs[1];
  const RungRun& over = rungs[3];
  if (over.throughput_per_s <= 0) result.Fail("no throughput measured at the over rung");
  double goodput = 0;
  for (const RungRun& run : rungs) {
    if (run.verdict.meets_limit) goodput = run.verdict.achieved_rate;
  }

  if (!config.trace) {
    result.values["setup_s"] = setup_s;
    result.values["docs_per_s"] = over.throughput_per_s;
    result.values["doc_p50_ms"] = high.verdict.p50_ms.value;
    result.values["doc_p90_ms"] = high.verdict.p90_ms.value;
    result.values["peak_rss_mb"] = *peak_rss;
    return result;
  }

  // --- Traced run ----------------------------------------------------------
  Tracer tracer;
  TraceCounters counters;
  const InProcess in_process =
      MeasureInProcess(oracle, *ontology, config, tracer, counters, result);
  if (in_process.replay_mismatches > 0) {
    result.Fail("traced replay differs from the oracle on " +
                std::to_string(in_process.replay_mismatches) + " pages");
  }
  ReportTrace(tracer, counters, result);
  std::vector<double> queue_wait;
  for (const RequestTiming& t : high.measured) {
    if (t.ok) queue_wait.push_back(LatencyMs(t) - in_process.handle_ms);
  }
  size_t rejected = 0;
  for (const RungRun& run : rungs) rejected += run.rejected;
  result.values["serve.http_parse.ns_per_req"] = in_process.http_parse_ns;
  result.values["serve.handle.ms_per_req"] = in_process.handle_ms;
  result.values["serve.queue_wait_ms.p99"] =
      WindowedQuantile(queue_wait, 0.99, kLatencyWindow).value;
  result.values["tail.doc_p99_ms"] = high.verdict.p99_ms.value;
  result.values["serve.low_p50_ms"] = low.verdict.p50_ms.value;
  result.values["serve.low_p99_ms"] = low.verdict.p99_ms.value;
  result.values["serve.rejected"] = static_cast<double>(rejected);
  result.values["serve.goodput_rps"] = goodput;
  result.values["loadgen.late_ms.p99"] = high.verdict.late_p99_ms.value;
  result.values["trace.overhead"] =
      in_process.baseline_s > 0 ? in_process.replay_s / in_process.baseline_s
                                : 0;
  Tracer scan_tracer;
  ReportScanPhase(scan_tracer,
                  RunScanPhase(**store, read.key_hashes, config.seed,
                               scan_tracer),
                  result);
  result.values["store.index_segments"] =
      static_cast<double>((*store)->index_segments());
  std::error_code error;
  const auto file_bytes = std::filesystem::file_size(store_path, error);
  if (!error && read.user_bytes > 0) {
    result.values["store.bytes_per_user_byte"] =
        static_cast<double>(file_bytes) / static_cast<double>(read.user_bytes);
  }
  return result;
}

}  // namespace perfbench
