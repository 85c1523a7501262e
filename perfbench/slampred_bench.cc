// slampred_bench — the SLAMPRED end-to-end benchmark.
//
//   slampred_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--record FILE] [--spans FILE]
//
// One invocation runs one workload from a seed: it generates the inputs,
// fits, publishes the model into a ModelRegistry, serves open-loop
// traffic through ScoringService from the benchmark's own load threads,
// checks the outputs against ScoringSession oracles, and prints every
// metric by name and unit. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (from spans recorded
// around each library call, plus the counters the library exposes).
// --record writes the same numbers with the run's provenance as JSON.
//
// Every layer is timed from outside: nothing here changes src/.

#include <sched.h>
#include <semaphore.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/fit_pipeline.h"
#include "core/model_artifact.h"
#include "core/scoring_service.h"
#include "core/scoring_session.h"
#include "core/slampred.h"
#include "datagen/aligned_generator.h"
#include "eval/link_split.h"
#include "eval/metrics.h"
#include "graph/social_graph.h"
#include "serve/artifact_quantizer.h"
#include "serve/model_registry.h"
#include "serve/scoring_kernels.h"
#include "serve/topk_index.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using slampred::UserPair;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Every constant below is frozen: a change to one is a change
// of benchmark, not of the program under test.

struct Workload {
  const char* name;
  bool scale_out;
  // Generation.
  std::size_t personas;  // fit-paper: GenerateAligned population.
  std::size_t users;     // scale-out: GenerateAlignedScaleOut users.
  // Fit.
  bool partitioned;
  std::size_t max_cluster;
  std::size_t rank;
  int inner;
  int outer;
  // Publish.
  bool quantize;
  std::size_t hot_users;
  // Traffic.
  TrafficSpec traffic;
  double low_rps;
  // The capacity measured when the benchmark was defined (where the
  // max-rate ladder starts) and the high rate, under a tenth of it, so
  // that a host starved to about one core still keeps up.
  double capacity_rps;
  double high_rps;
  // Quality floor of the held-out AUC.
  double auc_floor;
};

const Workload kWorkloads[] = {
    {.name = "fit-paper",
     .scale_out = false,
     .personas = 800,
     .users = 0,
     .partitioned = false,
     .max_cluster = 0,
     .rank = 24,
     .inner = 60,
     .outer = 2,
     .quantize = false,
     .hot_users = 0,
     .traffic = {.topk_share = 0.5, .k = 10, .pairs_per_request = 64,
                 .zipf_s = 0.0},
     .low_rps = 600.0,
     .capacity_rps = 33000.0,
     .high_rps = 3000.0,
     .auc_floor = 0.75},
    {.name = "scaleout-topk-skewed",
     .scale_out = true,
     .personas = 0,
     .users = 10000,
     .partitioned = true,
     .max_cluster = 512,
     .rank = 16,
     .inner = 20,
     .outer = 1,
     .quantize = true,
     .hot_users = 64,
     .traffic = {.topk_share = 0.75, .k = 10, .pairs_per_request = 64,
                 .zipf_s = 1.0},
     .low_rps = 600.0,
     .capacity_rps = 33000.0,
     .high_rps = 3000.0,
     .auc_floor = 0.75},
};

constexpr int kSetupRepeats = 15;
constexpr std::size_t kStreamLength = 1 << 15;  // Requests per run, cycled.
// Connection threads of the load generator: the most requests in flight.
// A phase whose in-flight count reaches it is sent late. Every batcher
// dispatch wakes all the requests waiting in it, so after a host stall a
// backlog of C requests wakes C threads per dispatch: with 256 connections
// it never drained (a 0.6 ms p50 became 120 ms for the rest of the run),
// and with 64 a starved host kept a 6000 rps phase saturated in four of
// ten runs. The fixed-rate phases keep few requests in flight (about two
// at 3000 rps) and get kConnections; the max-rate probes need more in
// flight, so load.max_rate_rps can read up to kProbeConnections / the mean
// latency.
constexpr std::size_t kConnections = 16;
constexpr std::size_t kProbeConnections = 64;
// Shares of --seconds. Untraced: the low-rate and the high-rate phase.
// Traced: the high rate untraced and traced (kHighShare each), then the
// max-rate ladder (split evenly over at most kMaxProbes probes).
constexpr double kLowShare = 0.5;
constexpr double kHighShare = 0.25;
constexpr double kLadderShare = 0.35;
constexpr double kWarmupSeconds = 0.5;
constexpr double kLatencyLimitMs = 5.0;
// A request sent this late means the probe is hopelessly overloaded: the
// rest of its schedule is dropped as missed.
constexpr double kAbortLatenessMs = 50.0;
// Requests in the shortest phase; >= 1000 so even a probe reports a p99.
constexpr std::size_t kProbeRequests = 1100;
constexpr int kMaxProbes = 7;       // Rungs probed per search.
constexpr int kProbeAttempts = 3;   // Probes before a rung fails.
// Starts near the low rate, so a run caught in a long host stall gives up
// after a few short probes instead of crawling down to idle rates.
const RateLadder kLadder{.base_rps = 500.0, .ratio = 1.05, .rungs = 110};
constexpr std::size_t kSampleEvery = 8;  // Responses kept for the gates.
constexpr int kDirectCalls = 2000;       // Direct ScoringSession::ScorePairs.
constexpr int kDirectRows = 200;         // Direct RowScores / TopKIndex::Row.
// Requests of the traced phase replayed straight into the kernels.
constexpr std::size_t kDirectReplayMax = 20000;

// ---------------------------------------------------------------------------
// Small utilities.

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// The serving / load CPU split: the load scheduler runs alone on the last
// CPU of the process's affinity mask, every serving thread on the others.
// Threads inherit the mask of the thread that creates them, so the serving
// side is fixed by calling PinToServeCpus before the pool and the
// connections are created. No split on a single CPU.
cpu_set_t AffinityMask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  return set;
}

int LastCpu(const cpu_set_t& set) {
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  return last;
}

const cpu_set_t kProcessCpus = AffinityMask();

std::size_t CpuCount() {
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&kProcessCpus)));
}

void PinToServeCpus() {
  if (CPU_COUNT(&kProcessCpus) < 2) return;
  cpu_set_t set = kProcessCpus;
  CPU_CLR(LastCpu(kProcessCpus), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void PinToLoadCpu() {
  if (CPU_COUNT(&kProcessCpus) < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(LastCpu(kProcessCpus), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// CPU time of the process / the calling thread (steal time excluded).
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "slampred_bench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Check(slampred::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const slampred::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Metrics and spans.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " +
             Num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// Spans of one thread; merged after the thread joins. Disabled recorders
// cost one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent = 0,
              std::uint64_t request = 0, std::uint64_t id = 0) {
    if (!enabled_) return;
    if (id == 0) id = NewId();
    spans_.push_back({id, parent, request, name, Nanos(start), Nanos(end)});
  }

  static std::uint64_t NewId() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  void Merge(SpanRecorder& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    other.spans_.clear();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Runs `fn` inside a span named `name` under `parent`.
template <typename Fn>
auto Timed(SpanRecorder& spans, const char* name, std::uint64_t parent,
           double* seconds, Fn&& fn) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const auto end = Clock::now();
    spans.Record(name, start, end, parent);
    if (seconds != nullptr) *seconds = Seconds(start, end);
  } else {
    auto result = fn();
    const auto end = Clock::now();
    spans.Record(name, start, end, parent);
    if (seconds != nullptr) *seconds = Seconds(start, end);
    return result;
  }
}

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  slampred::AlignedNetworks networks{slampred::HeterogeneousNetwork{}};
  slampred::SocialGraph full_graph;
  slampred::SocialGraph train_graph;
  // Held-out positives, each draw with its own negative pairs.
  std::vector<slampred::EvaluationSet> evals;
  std::size_t num_users = 0;
};

// The bundle and its held-out fold are a fixed dataset (like the paper's
// one crawled pair of networks), so every run fits the same graph; the
// run's seed draws the negative pairs and the traffic. Varying the data
// would swamp every metric: the scale-out generator's heavy-tailed
// degrees give graphs of 5k to 30k edges from one seed to the next, and
// the fold alone moved the partitioned fit's CPU time by a quarter.
constexpr std::uint64_t kDatasetSeed = 42;
// Which users are popular belongs to the dataset too; the run's seed
// draws the requests from that popularity.
constexpr std::uint64_t kPopularitySeed = kDatasetSeed + 7;
// auc and precision_at_100 are means over this many draws of negative
// pairs (5 per held-out link each): one draw moved precision_at_100 of
// fit-paper by up to 0.08 from seed to seed.
constexpr int kNegativeDraws = 5;

Inputs MakeInputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  if (w.scale_out) {
    slampred::ScaleOutConfig config;
    config.num_users = w.users;
    config.num_communities = 64;
    config.seed = kDatasetSeed;
    in.networks =
        Check(slampred::GenerateAlignedScaleOut(config), "generate").networks;
  } else {
    slampred::AlignedGeneratorConfig config =
        slampred::DefaultExperimentConfig(kDatasetSeed);
    config.population.num_personas = w.personas;
    in.networks = Check(slampred::GenerateAligned(config), "generate").networks;
  }
  in.full_graph =
      slampred::SocialGraph::FromHeterogeneousNetwork(in.networks.target());
  in.num_users = in.full_graph.num_users();
  slampred::Rng split_rng(kDatasetSeed ^ 0x5b1d0ULL);
  auto folds =
      Check(slampred::SplitLinks(in.full_graph, 5, split_rng), "split");
  in.train_graph = in.full_graph.WithEdgesRemoved(folds[0].test_edges);
  slampred::Rng rng(seed ^ 0x5b1d0ULL);
  for (int draw = 0; draw < kNegativeDraws; ++draw) {
    in.evals.push_back(
        Check(slampred::BuildEvaluationSet(in.full_graph, folds[0].test_edges,
                                           5.0, rng),
              "evaluation set"));
  }
  return in;
}

slampred::SlamPredConfig FitConfig(const Workload& w) {
  slampred::SlamPredConfig config;
  config.solver_backend = slampred::SolverBackend::kFactored;
  config.factored.rank = w.rank;
  config.optimization.inner.max_iterations = w.inner;
  config.optimization.max_outer_iterations = w.outer;
  if (w.partitioned) {
    config.partition.mode = slampred::PartitionMode::kAuto;
    config.partition.max_cluster_size = w.max_cluster;
  }
  return config;
}

// A request in the form the service takes.
struct Request {
  bool topk = false;
  std::size_t u = 0;
  std::vector<UserPair> pairs;
};

std::vector<Request> Prepare(const std::vector<TrafficRequest>& stream) {
  std::vector<Request> out(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    out[i].topk = stream[i].topk;
    out[i].u = stream[i].u;
    out[i].pairs.reserve(stream[i].pairs.size());
    for (const auto& [u, v] : stream[i].pairs) out[i].pairs.push_back({u, v});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Open-loop load generator. One scheduler thread, the only load-generating
// thread, runs alone on a CPU of its own (the serving threads run on the
// others) and spins on a fixed-rate schedule; at each due time it releases
// one token to `connections` connection threads. A connection takes the
// next request index, sends one blocking ScoringService call, and records
// due / send / done. While its call is in flight a connection sleeps inside
// the service (no spinning), so up to `connections` requests are in flight
// at once and the batcher can coalesce them. When every connection is busy,
// tokens wait and their requests go out late: a server that falls behind
// shows as lateness, never as a hidden backlog.

struct Response {
  bool sampled = false;
  bool ok = false;
  slampred::ServeTier tier = slampred::ServeTier::kFull;
  std::vector<double> scores;
  std::vector<slampred::TopKEntry> entries;
};

struct PhaseResult {
  PhaseSummary summary;
  std::vector<Response> samples;  // Index i holds request i * kSampleEvery.
  std::size_t topk_requests = 0;
  std::size_t queue_depth_max = 0;
  std::size_t inflight_max = 0;
  // CPU the process spent over the phase, less the scheduler's own spin:
  // the serving side's CPU (service, batcher, pool, connections).
  double serve_cpu_s = 0.0;
};

PhaseResult RunPhase(slampred::ScoringService& service,
                     const std::vector<Request>& stream, std::size_t offset,
                     std::size_t count, double rate_rps, std::size_t k,
                     std::size_t connections, bool sample, bool abortable,
                     SpanRecorder* spans) {
  PhaseResult result;
  std::vector<RequestRecord> records(count);
  if (sample) result.samples.resize((count + kSampleEvery - 1) / kSampleEvery);
  const double schedule_s = DueTime(count, rate_rps);
  const double give_up_s = schedule_s * 1.5 + 0.5;
  // A POSIX semaphore: each post wakes one waiting connection.
  // (libstdc++'s std::counting_semaphore wakes every waiter on each
  // release, so a token would stir every connection thread.)
  sem_t tokens;
  sem_init(&tokens, 0, 0);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> aborted{false};
  std::atomic<std::size_t> inflight{0};
  std::atomic<std::size_t> inflight_max{0};
  std::atomic<std::size_t> depth_max{0};
  const auto raise = [](std::atomic<std::size_t>& max, std::size_t value) {
    std::size_t seen = max.load(std::memory_order_relaxed);
    while (value > seen && !max.compare_exchange_weak(seen, value)) {
    }
  };
  std::vector<SpanRecorder> recorders;
  for (std::size_t t = 0; t < connections; ++t) {
    recorders.emplace_back(spans != nullptr && spans->enabled());
  }
  Clock::time_point t0;  // Set before the first token is released.
  const auto at = [&](double seconds) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  };

  const auto connection = [&](SpanRecorder& rec) {
    for (;;) {
      while (sem_wait(&tokens) != 0) {
      }
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const auto send_at = Clock::now();
      RequestRecord& r = records[i];
      r.due = DueTime(i, rate_rps);
      r.send = Seconds(t0, send_at);
      if (r.send > give_up_s || aborted.load(std::memory_order_relaxed)) {
        continue;  // Missed: never sent.
      }
      if (abortable && (r.send - r.due) * 1e3 > kAbortLatenessMs) {
        aborted.store(true, std::memory_order_relaxed);
        continue;
      }
      raise(inflight_max, inflight.fetch_add(1) + 1);
      if (rec.enabled()) raise(depth_max, service.batcher().queue_depth());
      const Request& request = stream[(offset + i) % stream.size()];
      Response response;
      if (request.topk) {
        auto answer = service.TopK(request.u, k, /*exclude_known_links=*/true);
        response.ok = answer.ok();
        if (answer.ok()) {
          response.tier = answer.value().tier;
          response.entries = std::move(answer.value().entries);
        }
      } else {
        auto answer = service.ScorePairs(request.pairs);
        response.ok = answer.ok();
        if (answer.ok()) {
          response.tier = answer.value().tier;
          response.scores = std::move(answer.value().scores);
        }
      }
      const auto done_at = Clock::now();
      inflight.fetch_sub(1);
      r.done = Seconds(t0, done_at);
      r.sent = true;
      r.ok = response.ok;
      if (rec.enabled()) {
        const std::uint64_t id = SpanRecorder::NewId();
        const auto due_at = at(r.due);
        rec.Record("request", due_at, done_at, 0, id, id);
        rec.Record("load.lateness", due_at, send_at, id, id);
        rec.Record(request.topk ? "service.topk" : "service.pairs", send_at,
                   done_at, id, id);
      }
      if (sample && i % kSampleEvery == 0) {
        response.sampled = true;
        result.samples[i / kSampleEvery] = std::move(response);
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < connections; ++t) {
    threads.emplace_back(connection, std::ref(recorders[t]));
  }
  double process_cpu0 = 0.0;
  double scheduler_cpu = 0.0;
  // When each token was posted. The host sometimes deschedules the
  // scheduler's vCPU for milliseconds; latency is timed from the post,
  // so such a stall shows as lateness but not as server latency.
  std::vector<double> released_at(count, 0.0);
  std::thread scheduler([&] {
    PinToLoadCpu();
    const double own_cpu0 = ThreadCpuSeconds();
    process_cpu0 = ProcessCpuSeconds();
    t0 = Clock::now() + std::chrono::milliseconds(1);
    std::size_t released = 0;
    for (; released < count; ++released) {
      // Spin rather than sleep: an idle vCPU can take milliseconds to
      // wake, which would swamp the latencies being measured.
      const auto due_at = at(DueTime(released, rate_rps));
      auto now = Clock::now();
      while (now < due_at) {
        CpuRelax();
        now = Clock::now();
      }
      if (aborted.load(std::memory_order_relaxed)) break;
      released_at[released] = Seconds(t0, now);
      sem_post(&tokens);
    }
    scheduler_cpu = ThreadCpuSeconds() - own_cpu0;
    // The rest of an aborted schedule, then one stop token per connection.
    for (std::size_t i = released; i < count + connections; ++i) {
      sem_post(&tokens);
    }
  });
  scheduler.join();
  for (std::thread& thread : threads) thread.join();
  const double wall = Seconds(t0, Clock::now());
  result.serve_cpu_s = ProcessCpuSeconds() - process_cpu0 - scheduler_cpu;
  sem_destroy(&tokens);
  if (spans != nullptr) {
    for (SpanRecorder& rec : recorders) spans->Merge(rec);
  }
  for (std::size_t i = 0; i < count; ++i) {
    records[i].release = released_at[i];
    if (stream[(offset + i) % stream.size()].topk) ++result.topk_requests;
  }
  result.summary = SummarizePhase(records, wall);
  result.queue_depth_max = depth_max.load();
  result.inflight_max = inflight_max.load();
  return result;
}

// Completions per second over a phase: ok requests over the span from
// the first due time to the last completion.
double AchievedRate(const PhaseSummary& summary) {
  return summary.wall_s > 0.0
             ? static_cast<double>(summary.ok) / summary.wall_s
             : 0.0;
}

// ---------------------------------------------------------------------------
// Correctness gates.

struct Gates {
  std::size_t checked = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    if (failures.size() < 10) {
      failures.push_back(what);
    } else if (failures.size() == 10) {
      failures.push_back("...");
    }
  }
};

// The oracle top-k: the session's full sorted row, known links skipped.
std::vector<slampred::TopKEntry> OracleTopK(
    const slampred::ScoringSession& session,
    const slampred::SocialGraph& known, std::size_t u, std::size_t k) {
  std::vector<slampred::TopKEntry> out;
  for (const std::uint32_t v : slampred::BuildTopKRowOrder(session, u)) {
    if (known.HasEdge(u, v)) continue;
    out.push_back({v, session.ScoreUnchecked(u, v)});
    if (out.size() == k) break;
  }
  return out;
}

void CheckSamples(const PhaseResult& phase, const std::vector<Request>& stream,
                  std::size_t offset, const slampred::ScoringSession& served,
                  const slampred::ScoringSession* float_oracle,
                  const slampred::SocialGraph& known, std::size_t k,
                  Gates& gates) {
  for (std::size_t s = 0; s < phase.samples.size(); ++s) {
    const Response& response = phase.samples[s];
    if (!response.sampled || !response.ok) continue;
    const Request& request =
        stream[(offset + s * kSampleEvery) % stream.size()];
    ++gates.checked;
    if (!request.topk) {
      if (response.tier != slampred::ServeTier::kFull) {
        gates.Fail("pair request answered off the full tier");
        continue;
      }
      auto oracle = served.ScorePairs(request.pairs);
      if (!oracle.ok() || oracle.value() != response.scores) {
        gates.Fail("pair scores differ from the ScoringSession oracle");
      }
      continue;
    }
    const auto& entries = response.entries;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].v == request.u || known.HasEdge(request.u, entries[i].v)) {
        gates.Fail("top-k returned a known link or the user itself");
      }
      if (i > 0 && entries[i].score > entries[i - 1].score) {
        gates.Fail("top-k scores increase");
      }
    }
    if (response.tier == slampred::ServeTier::kFull) {
      if (OracleTopK(served, known, request.u, k) != entries) {
        gates.Fail("full-tier top-k differs from the ScoringSession oracle");
      }
    } else if (response.tier == slampred::ServeTier::kCached &&
               float_oracle != nullptr) {
      // Hot rows are snapshots of the float scores.
      if (OracleTopK(*float_oracle, known, request.u, k) != entries) {
        gates.Fail("cached top-k differs from the float oracle");
      }
    } else {
      gates.Fail(std::string("top-k answered from tier ") +
                 slampred::ServeTierName(response.tier));
    }
  }
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string record;
  std::string spans_path;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--record") {
      args.record = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) Die("--seconds must be positive");
  return args;
}

// Everything one run measures, in the order it happens.
struct Run {
  const Workload& w;
  const Args& args;
  std::size_t cpus = 1;
  std::size_t load_threads = 1;
  std::size_t pool_threads = 1;

  SpanRecorder spans;
  Metrics e2e;
  Metrics layer;
  Gates gates;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string phases_json;  // Per-phase summaries for the record.

  Inputs in;
  TrafficSpec traffic;
  std::vector<Request> stream;
  std::vector<double> setup_times;

  Run(const Workload& workload, const Args& arguments)
      : w(workload), args(arguments), spans(arguments.trace) {
    cpus = CpuCount();
    // One load-generating thread (the scheduler); the connection threads
    // sleep inside the service, and the one leading a batch dispatch is
    // the pool's calling thread.
    load_threads = 1;
    pool_threads = std::max<std::size_t>(1, cpus - load_threads);
  }

  // --- Set-up: inputs and traffic. An untraced run builds them
  // kSetupRepeats times in three groups (before the fit, after it and
  // after serving), so the median spans the run rather than one moment of
  // the host's speed. -------------------------------------------------------
  void Setup() {
    traffic = w.traffic;
    const auto start = Clock::now();
    in = MakeInputs(w, args.seed);
    traffic.num_users = in.num_users;
    stream = Prepare(MakeRequestStream(traffic, kStreamLength, args.seed + 1,
                                       kPopularitySeed));
    setup_times.push_back(Seconds(start, Clock::now()));
    RepeatSetup(kSetupRepeats / 3 - 1);
    std::printf("workload %s seed %" PRIu64 ": %zu users, %zu train edges, "
                "%zu held-out pairs; setup %.4f s (median of %zu)\n",
                w.name, args.seed, in.num_users, in.train_graph.num_edges(),
                in.evals[0].pairs.size(), Median(setup_times),
                setup_times.size());
  }

  // Times `repeats` more set-ups, dropping what they build.
  void RepeatSetup(int repeats) {
    for (int rep = 0; rep < repeats; ++rep) {
      const auto start = Clock::now();
      const Inputs again = MakeInputs(w, args.seed);
      const std::vector<Request> requests = Prepare(MakeRequestStream(
          traffic, kStreamLength, args.seed + 1, kPopularitySeed));
      setup_times.push_back(Seconds(start, Clock::now()));
    }
  }

  // --- Fit. ----------------------------------------------------------------
  // Untraced: one SlamPred::Fit. Traced: first the BuildFitPipeline stages
  // one by one (a span per FitStage::Run), then the same Fit for the
  // model; the gap between the two is the fit's tracing overhead.
  double fit_s = 0.0;
  double fit_cpu_s = 0.0;
  // Cluster timings of the staged run, to set against its own wall time.
  slampred::PartitionStats staged_partition;

  void FitStages(const slampred::SlamPredConfig& config) {
    slampred::FitContext context;
    context.networks = &in.networks;
    context.target_structure = &in.train_graph;
    const auto stages = slampred::BuildFitPipeline(config);
    const std::uint64_t root = SpanRecorder::NewId();
    const auto start = Clock::now();
    for (const auto& stage : stages) {
      const std::string name = stage->name();
      const char* span = name == "features"    ? "features.build"
                         : name == "embedding" ? "embedding.adapt"
                         : name == "partition" ? "graph.partition"
                         : w.partitioned       ? "core.partitioned_solve"
                                               : "optim.solve";
      Timed(spans, span, root, nullptr,
            [&] { Check(stage->Run(context), stage->name()); });
    }
    const auto end = Clock::now();
    spans.Record("fit.pipeline", start, end, 0, 0, root);
    staged_partition = context.partition_stats;
    layer.Add("features.raw_nnz",
              static_cast<double>(context.memory_stats.raw_tensor_nnz),
              "count");
    layer.Add("embedding.adapted_nnz",
              static_cast<double>(context.memory_stats.adapted_tensor_nnz),
              "count");
  }

  std::unique_ptr<slampred::SlamPred> Fit() {
    slampred::ThreadPool::Global().Resize(cpus);
    const slampred::SlamPredConfig config = FitConfig(w);
    if (args.trace) FitStages(config);
    auto model = std::make_unique<slampred::SlamPred>(config);
    const double cpu0 = ProcessCpuSeconds();
    Timed(spans, "fit.model", 0, &fit_s,
          [&] { Check(model->Fit(in.networks, in.train_graph), "fit"); });
    fit_cpu_s = ProcessCpuSeconds() - cpu0;
    std::printf("fit %.3f s, %.3f CPU-s on %zu threads (%s)\n", fit_s,
                fit_cpu_s, cpus,
                model->partitioned()
                    ? model->partition_stats().ToString().c_str()
                    : "monolithic");
    return model;
  }

  void FitLayerMetrics(const slampred::SlamPred& model) {
    const slampred::PartitionStats& part = staged_partition;
    const slampred::CccpTrace& trace = model.trace();
    double solve_sum = 0.0;
    double solve_max = 0.0;
    for (const double t : part.cluster_solve_seconds) {
      solve_sum += t;
      solve_max = std::max(solve_max, t);
    }
    const auto totals = SelfTimes(spans.spans());
    const auto self_s = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    const double solve_wall = self_s("core.partitioned_solve");
    layer.Add("fit.wall_s", fit_s, "s");
    layer.Add("fit.cpu_s", fit_cpu_s, "s");
    layer.Add("graph.partition_s", self_s("graph.partition"), "s");
    layer.Add("graph.clusters", static_cast<double>(part.num_clusters), "count");
    layer.Add("graph.cut_edge_frac", part.cut_edge_fraction, "ratio");
    layer.Add("graph.max_cluster_users", static_cast<double>(part.max_cluster),
              "count");
    layer.Add("core.partitioned_solve_s", solve_wall, "s");
    layer.Add("core.cluster_solve_sum_s", solve_sum, "s");
    layer.Add("core.cluster_solve_max_s", solve_max, "s");
    layer.Add("core.refine_s", part.refine_seconds, "s");
    layer.Add("core.cluster_parallel_eff",
              solve_wall > 0.0
                  ? solve_sum / (solve_wall * static_cast<double>(cpus))
                  : 0.0,
              "ratio");
    layer.Add("features.build_s", self_s("features.build"), "s");
    layer.Add("embedding.adapt_s", self_s("embedding.adapt"), "s");
    layer.Add("optim.solve_s", self_s("optim.solve"), "s");
    layer.Add("optim.outer_rounds", trace.outer_iterations, "count");
    layer.Add("optim.inner_iters",
              static_cast<double>(trace.steps.s_change_l1.size()), "count");
    layer.Add("optim.recoveries", trace.recovery.Total(), "count");
    layer.Add("optim.svd_s", model.phase_times().svd_seconds, "s");
    const auto pipeline = totals.find("fit.pipeline");
    if (pipeline != totals.end()) {
      layer.Add("trace.fit_overhead_s", pipeline->second.total_s - fit_s, "s");
    }
  }

  // --- Publish: artifact → (quantize) → bytes → artifact → Swap → first
  // answer from the new version. -------------------------------------------
  slampred::ModelRegistry registry;
  std::unique_ptr<slampred::ScoringService> service;
  std::string served_bytes;
  std::optional<slampred::ModelArtifact> float_artifact;
  slampred::ArtifactQuantizeReport quantize_report;
  double publish_s = 0.0;
  double publish_cpu_s = 0.0;

  void Publish(const slampred::SlamPred& model) {
    // From here on the thread pool has the serving size.
    slampred::ThreadPool::Global().Resize(pool_threads);
    service = std::make_unique<slampred::ScoringService>(&registry);
    const std::vector<std::uint32_t> hot =
        ZipfUsers(in.num_users, std::max(traffic.zipf_s, 1e-9),
                  kPopularitySeed)
            .MostPopular(w.hot_users);
    const std::size_t probe_user = hot.empty() ? 0 : hot.front();
    slampred::CsrMatrix links = in.train_graph.AdjacencyCsr();
    const std::uint64_t root = SpanRecorder::NewId();
    const double cpu0 = ProcessCpuSeconds();
    const auto start = Clock::now();
    auto artifact = Timed(spans, "artifact.make", root, nullptr, [&] {
      return Check(slampred::MakeModelArtifact(model), "make artifact");
    });
    float_artifact = artifact;
    if (w.quantize) {
      slampred::ArtifactQuantizerOptions options;
      options.bits = slampred::QuantizationBits::kU8;
      options.hot_user_ids = hot;
      artifact = Timed(spans, "quantizer.quantize", root, nullptr, [&] {
        return Check(slampred::QuantizeModelArtifact(
                         std::move(artifact), options, &quantize_report),
                     "quantize");
      });
    }
    served_bytes = Timed(spans, "artifact.serialize", root, nullptr,
                         [&] { return slampred::SerializeModelArtifact(artifact); });
    auto loaded = Timed(spans, "artifact.deserialize", root, nullptr, [&] {
      return Check(slampred::DeserializeModelArtifact(served_bytes),
                   "deserialize");
    });
    Timed(spans, "registry.swap", root, nullptr, [&] {
      Check(registry.Swap(std::move(loaded), std::move(links)), "swap");
    });
    Timed(spans, "serve.first_answer", root, nullptr, [&] {
      Check(service->TopK(probe_user, traffic.k, true), "first answer");
    });
    const auto end = Clock::now();
    spans.Record("publish", start, end, 0, 0, root);
    publish_s = Seconds(start, end);
    publish_cpu_s = ProcessCpuSeconds() - cpu0;
    std::printf("publish %.4f s, %.4f CPU-s; artifact %zu bytes\n", publish_s,
                publish_cpu_s, served_bytes.size());
  }

  // --- Oracles and quality. ----------------------------------------------
  std::optional<slampred::ScoringSession> oracle;        // Served artifact.
  std::optional<slampred::ScoringSession> float_oracle;  // Before quantizing.
  double auc = 0.0;
  double p100 = 0.0;

  void Oracles() {
    // The served bytes must parse to an artifact that serializes back to
    // the same bytes.
    slampred::ModelArtifact reloaded =
        Check(slampred::DeserializeModelArtifact(served_bytes), "reload");
    if (slampred::SerializeModelArtifact(reloaded) != served_bytes) {
      gates.Fail("artifact does not round-trip through serialization");
    }
    oracle = Check(slampred::ScoringSession::FromArtifact(std::move(reloaded)),
                   "oracle session");
    if (w.quantize) {
      float_oracle = Check(
          slampred::ScoringSession::FromArtifact(std::move(*float_artifact)),
          "float oracle session");
    }
    float_artifact.reset();

    // Means over the negative draws.
    for (const slampred::EvaluationSet& eval : in.evals) {
      const std::vector<double> scores =
          Check(oracle->ScorePairs(eval.pairs), "score held-out pairs");
      auc += Check(slampred::ComputeAuc(scores, eval.labels), "auc");
      p100 += Check(slampred::ComputePrecisionAtK(scores, eval.labels, 100),
                    "precision@100");
    }
    auc /= static_cast<double>(in.evals.size());
    p100 /= static_cast<double>(in.evals.size());
    if (!(auc >= w.auc_floor)) {
      gates.Fail("auc " + Num(auc) + " below the floor " + Num(w.auc_floor));
    }
    std::printf("held-out auc %.4f (floor %.2f), precision@100 %.3f "
                "(means of %zu negative draws)\n",
                auc, w.auc_floor, p100, in.evals.size());
  }

  // --- Serving phases. ----------------------------------------------------
  std::size_t next_offset = 0;

  // With `pin`, the main thread and every thread it creates from then on
  // (a fresh pool, the connections) keep off the load CPU; without, all
  // CPUs again. Publish runs unpinned, so the host can move its threads
  // off a stalled vCPU.
  void PinServing(bool pin) {
    if (pin) {
      PinToServeCpus();
    } else {
      sched_setaffinity(0, sizeof(kProcessCpus), &kProcessCpus);
    }
    slampred::ThreadPool::Global().Resize(1);
    slampred::ThreadPool::Global().Resize(pool_threads);
  }

  // A phase at a fixed `rate`; only max-rate probes may abort early.
  PhaseResult Phase(const char* label, double rate, double seconds,
                    bool sample, SpanRecorder* rec) {
    const bool abortable = std::strcmp(label, "probe") == 0;
    const std::size_t count = std::max<std::size_t>(
        kProbeRequests, static_cast<std::size_t>(rate * seconds));
    const std::size_t offset = next_offset;
    next_offset += count;
    PhaseResult phase = RunPhase(
        *service, stream, offset, count, rate, traffic.k,
        abortable ? kProbeConnections : kConnections, sample, abortable, rec);
    attempted += phase.summary.sent;
    failed += phase.summary.failed;
    if (sample) {
      CheckSamples(phase, stream, offset, *oracle,
                   float_oracle ? &*float_oracle : nullptr, in.train_graph,
                   traffic.k, gates);
    }
    const PhaseSummary& s = phase.summary;
    const auto opt = [](const std::optional<double>& v) {
      return v ? Num(*v) : std::string("null");
    };
    std::printf("%-12s %8.1f rps: sent %zu ok %zu failed %zu missed %zu; "
                "n=%zu p50 %s p90 %s p99 %s ms; median of %zu windows p50 %s "
                "p90 %s ms; lateness p99 %s max %.4f ms; in flight max %zu; "
                "serve cpu %.2f us/req\n",
                label, rate, s.sent, s.ok, s.failed, s.missed,
                s.latencies_ms.size(), opt(s.p50_ms).c_str(),
                opt(s.p90_ms).c_str(), opt(s.p99_ms).c_str(), s.windows,
                opt(s.median_window_p50_ms).c_str(),
                opt(s.median_window_p90_ms).c_str(),
                opt(s.lateness_p99_ms).c_str(), s.lateness_max_ms,
                phase.inflight_max,
                phase.serve_cpu_s * 1e6 /
                    static_cast<double>(std::max<std::size_t>(1, s.sent)));
    if (!phases_json.empty()) phases_json += ", ";
    phases_json += "{\"phase\": \"" + std::string(label) +
                   "\", \"rate_rps\": " + Num(rate) +
                   ", \"scheduled\": " + std::to_string(s.scheduled) +
                   ", \"sent\": " + std::to_string(s.sent) +
                   ", \"ok\": " + std::to_string(s.ok) +
                   ", \"failed\": " + std::to_string(s.failed) +
                   ", \"missed\": " + std::to_string(s.missed) +
                   ", \"p50_ms\": " + opt(s.p50_ms) +
                   ", \"p90_ms\": " + opt(s.p90_ms) +
                   ", \"p99_ms\": " + opt(s.p99_ms) +
                   ", \"windows\": " + std::to_string(s.windows) +
                   ", \"median_window_p50_ms\": " + opt(s.median_window_p50_ms) +
                   ", \"median_window_p90_ms\": " + opt(s.median_window_p90_ms) +
                   ", \"samples\": " + std::to_string(s.latencies_ms.size()) +
                   ", \"lateness_p99_ms\": " + opt(s.lateness_p99_ms) +
                   ", \"lateness_max_ms\": " + Num(s.lateness_max_ms) +
                   ", \"inflight_max\": " + std::to_string(phase.inflight_max) +
                   ", \"achieved_rps\": " + Num(AchievedRate(s)) + "}";
    return phase;
  }

  PhaseSummary low_summary;
  PhaseSummary high_summary;

  void Serve() {
    PinServing(true);
    // Warm the new version's caches before anything is timed.
    Phase("warmup", w.high_rps, kWarmupSeconds, false, nullptr);
    low_summary =
        Phase("low", w.low_rps, kLowShare * args.seconds, true, nullptr)
            .summary;
    high_summary = Phase("high", w.high_rps, (1.0 - kLowShare) * args.seconds,
                         true, nullptr)
                       .summary;
    PinServing(false);
  }

  // The max-rate ladder search; the figure is the completion rate
  // measured at the highest passing rung. When no rung passes (a host
  // stall through the whole search) it falls back to the rate measured at
  // the lowest rung probed, so it never reads 0.
  double MaxRate() {
    std::map<int, double> achieved;
    const double probe_s = kLadderShare * args.seconds / kMaxProbes;
    // A host stall can sink a probe, so a rung fails only when every one
    // of kProbeAttempts probes at its rate fails.
    const LadderResult ladder = SearchLadder(
        kLadder, kLadder.RungAtOrBelow(w.capacity_rps), kMaxProbes,
        [&](int rung) {
          const double rate = kLadder.Rate(rung);
          for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
            const PhaseResult probe =
                Phase("probe", rate, probe_s, false, nullptr);
            achieved[rung] = AchievedRate(probe.summary);
            if (MeetsLimit(probe.summary, kLatencyLimitMs)) {
              std::printf("  rung %d passes\n", rung);
              return true;
            }
          }
          std::printf("  rung %d fails\n", rung);
          return false;
        });
    if (ladder.best_rung < 0) {
      std::printf("  no rung met the limit; max_rate_rps falls back to the "
                  "lowest rung probed\n");
    }
    return ladder.best_rung >= 0 ? achieved[ladder.best_rung]
                                 : achieved.begin()->second;
  }

  void EndToEndMetrics() {
    const double ok = static_cast<double>(low_summary.ok + high_summary.ok);
    const double scheduled =
        static_cast<double>(low_summary.scheduled + high_summary.scheduled);
    e2e.Add("setup_s", Median(setup_times), "s");
    e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
    e2e.Add("artifact_bytes", static_cast<double>(served_bytes.size()), "B");
    e2e.Add("auc", auc, "ratio");
    e2e.Add("precision_at_100", p100, "ratio");
    const auto window = [](const std::optional<double>& v) {
      return v.value_or(NAN);
    };
    // Only the low rate's median: when the host starves the VM the p90s
    // grow several-fold and the high rate's p50 by a quarter, while this
    // one moves by a few percent. The high rate's figures are per-layer
    // (serve.p50_ms.high and on).
    e2e.Add("lat_p50_ms.low", window(low_summary.median_window_p50_ms), "ms");
    e2e.Add("ok_frac", scheduled > 0.0 ? ok / scheduled : 0.0, "ratio");
  }

  // Traced serving: the high-rate phase untraced, then traced with a span
  // per request boundary; counters are read around the traced phase.
  void ServeTraced() {
    PinServing(true);
    Phase("warmup", w.high_rps, kWarmupSeconds, false, nullptr);
    const double seconds = kHighShare * args.seconds;
    const PhaseResult plain = Phase("high", w.high_rps, seconds, true, nullptr);

    const auto model = registry.Acquire();
    const slampred::BatchScorer& batcher = service->batcher();
    const std::size_t dispatches0 = batcher.batches_dispatched();
    const std::size_t coalesced0 = batcher.coalesced_requests();
    const std::size_t builds0 = model->topk.builds();
    const std::size_t evictions0 = model->topk.evictions();
    const std::uint64_t hot0 = model->hot_hits.load();
    const std::size_t offset = next_offset;
    const PhaseResult traced =
        Phase("high traced", w.high_rps, seconds, true, &spans);
    const double dispatches =
        static_cast<double>(batcher.batches_dispatched() - dispatches0);
    const double coalesced =
        static_cast<double>(batcher.coalesced_requests() - coalesced0);
    const double builds = static_cast<double>(model->topk.builds() - builds0);
    const double hot_hits = static_cast<double>(model->hot_hits.load() - hot0);
    const double requests = static_cast<double>(traced.summary.sent);
    const double topk = static_cast<double>(traced.topk_requests);

    layer.Add("topk.row_builds", builds, "count");
    layer.Add("topk.row_reuse_frac",
              topk - hot_hits > 0.0 ? 1.0 - builds / (topk - hot_hits) : 0.0,
              "ratio");
    layer.Add("topk.evictions",
              static_cast<double>(model->topk.evictions() - evictions0),
              "count");
    layer.Add("topk.hot_hit_frac", topk > 0.0 ? hot_hits / topk : 0.0,
              "ratio");
    layer.Add("batcher.dispatches", dispatches, "count");
    layer.Add("batcher.requests_per_dispatch",
              dispatches > 0.0 ? requests / dispatches : 0.0, "count");
    layer.Add("batcher.coalesced_frac",
              requests > 0.0 ? coalesced / requests : 0.0, "ratio");
    layer.Add("batcher.queue_depth_max",
              static_cast<double>(traced.queue_depth_max), "count");

    // The same request stream straight through the kernels the batcher
    // dispatches to: what the service adds on top is its overhead.
    std::vector<double> direct_ms;
    const std::size_t replay =
        std::min(traced.summary.scheduled, kDirectReplayMax);
    for (std::size_t i = 0; i < replay; ++i) {
      const Request& r = stream[(offset + i) % stream.size()];
      const auto start = Clock::now();
      if (r.topk) {
        Check(slampred::TopKOnModel(*model, r.u, traffic.k, true), "topk");
      } else {
        Check(slampred::ScorePairsOnModel(*model, r.pairs), "pairs");
      }
      direct_ms.push_back(Seconds(start, Clock::now()) * 1e3);
    }
    const double service_p50 = plain.summary.p50_ms.value_or(NAN);
    layer.Add("serve.p50_ms.high",
              plain.summary.median_window_p50_ms.value_or(NAN), "ms");
    layer.Add("serve.p90_ms.high",
              plain.summary.median_window_p90_ms.value_or(NAN), "ms");
    layer.Add("serve.p99_ms.high", plain.summary.p99_ms.value_or(NAN), "ms");
    layer.Add("serve.cpu_us_per_req",
              plain.serve_cpu_s * 1e6 /
                  static_cast<double>(std::max<std::size_t>(1, plain.summary.sent)),
              "us");
    layer.Add("serve.overhead_ms.p50",
              service_p50 - Percentile(direct_ms, 0.5).value_or(NAN), "ms");
    layer.Add("trace.overhead_ms.p50",
              traced.summary.p50_ms.value_or(NAN) - service_p50, "ms");

    const PhaseSummary& s = traced.summary;
    layer.Add("load.sent", static_cast<double>(s.sent), "count");
    layer.Add("load.ok", static_cast<double>(s.ok), "count");
    layer.Add("load.failed", static_cast<double>(s.failed + s.missed), "count");
    layer.Add("load.lateness_ms.p99", s.lateness_p99_ms.value_or(NAN), "ms");
    layer.Add("load.lateness_ms.max", s.lateness_max_ms, "ms");
    layer.Add("load.inflight_max", static_cast<double>(traced.inflight_max),
              "count");
    layer.Add("load.max_rate_rps", MaxRate(), "1/s");
    PinServing(false);
  }

  // Direct calls into the session and the top-K index, off the service.
  void DirectKernels() {
    slampred::Rng rng(args.seed ^ 0xd1ec7ULL);
    const std::size_t n = in.num_users;
    std::vector<double> pair_ns;
    std::vector<UserPair> pairs(traffic.pairs_per_request);
    for (int call = 0; call < kDirectCalls; ++call) {
      for (UserPair& p : pairs) p = {rng.NextBounded(n), rng.NextBounded(n)};
      const auto start = Clock::now();
      Check(oracle->ScorePairs(pairs), "session pairs");
      pair_ns.push_back(Seconds(start, Clock::now()) * 1e9 /
                        static_cast<double>(pairs.size()));
    }
    std::vector<double> row_ms;
    std::vector<double> topk_ms;
    std::vector<double> row;
    slampred::TopKIndex index(kDirectRows);
    for (int call = 0; call < kDirectRows; ++call) {
      // Distinct users, so every TopKIndex::Row call builds its row.
      const std::size_t u = (static_cast<std::size_t>(call) * n) / kDirectRows +
                            rng.NextBounded(n / kDirectRows);
      auto start = Clock::now();
      oracle->RowScores(u, row);
      row_ms.push_back(Seconds(start, Clock::now()) * 1e3);
      start = Clock::now();
      index.Row(*oracle, u);
      topk_ms.push_back(Seconds(start, Clock::now()) * 1e3);
    }
    layer.Add("session.pairs_ns_per_pair", Median(pair_ns), "ns");
    layer.Add("session.row_scores_ms", Median(row_ms), "ms");
    layer.Add("session.topk_direct_ms", Median(topk_ms), "ms");
  }

  void PublishLayerMetrics() {
    const auto totals = SelfTimes(spans.spans());
    const auto self_s = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    layer.Add("publish.wall_s", publish_s, "s");
    layer.Add("publish.cpu_s", publish_cpu_s, "s");
    layer.Add("artifact.make_s", self_s("artifact.make"), "s");
    layer.Add("artifact.serialize_s", self_s("artifact.serialize"), "s");
    layer.Add("artifact.deserialize_s", self_s("artifact.deserialize"), "s");
    layer.Add("quantizer.quantize_s", self_s("quantizer.quantize"), "s");
    layer.Add("quantizer.shrink", quantize_report.shrink(), "ratio");
    layer.Add("registry.swap_s", self_s("registry.swap"), "s");
    layer.Add("registry.hot_rows",
              static_cast<double>(registry.Acquire()->hot_rows.size()),
              "count");
  }
};

std::string SpanTableJson(const std::map<std::string, SpanTotals>& totals) {
  std::string out = "[";
  for (const auto& [name, t] : totals) {
    if (out.size() > 1) out += ", ";
    out += "{\"name\": \"" + name + "\", \"count\": " +
           std::to_string(t.count) + ", \"total_s\": " + Num(t.total_s) +
           ", \"self_s\": " + Num(t.self_s) + "}";
  }
  return out + "]";
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "\n]\n";
}

std::string WorkloadJson(const Workload& w) {
  return std::string("{\"dataset_seed\": ") + std::to_string(kDatasetSeed) +
         ", \"personas\": " + std::to_string(w.personas) +
         ", \"users\": " + std::to_string(w.users) +
         ", \"partitioned\": " + (w.partitioned ? "true" : "false") +
         ", \"max_cluster\": " + std::to_string(w.max_cluster) +
         ", \"rank\": " + std::to_string(w.rank) +
         ", \"inner\": " + std::to_string(w.inner) +
         ", \"outer\": " + std::to_string(w.outer) +
         ", \"quantize\": " + (w.quantize ? "\"u8\"" : "\"off\"") +
         ", \"hot_users\": " + std::to_string(w.hot_users) +
         ", \"topk_share\": " + Num(w.traffic.topk_share) +
         ", \"k\": " + std::to_string(w.traffic.k) +
         ", \"pairs_per_request\": " +
         std::to_string(w.traffic.pairs_per_request) +
         ", \"zipf_s\": " + Num(w.traffic.zipf_s) +
         ", \"low_rps\": " + Num(w.low_rps) +
         ", \"capacity_rps\": " + Num(w.capacity_rps) +
         ", \"high_rps\": " + Num(w.high_rps) +
         ", \"latency_limit_ms\": " + Num(kLatencyLimitMs) +
         ", \"auc_floor\": " + Num(w.auc_floor) + "}";
}

int Main(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Die("unknown workload '" + args.workload + "'");
  Run run(*found, args);

  run.Setup();
  const std::unique_ptr<slampred::SlamPred> model = run.Fit();
  if (!args.trace) run.RepeatSetup(kSetupRepeats / 3);
  run.Publish(*model);
  run.Oracles();
  if (args.trace) {
    run.FitLayerMetrics(*model);
    run.PublishLayerMetrics();
    run.ServeTraced();
    run.DirectKernels();
    run.layer.Add("trace.spans", static_cast<double>(run.spans.spans().size()),
                  "count");
  } else {
    run.Serve();
    run.RepeatSetup(kSetupRepeats / 3);
    run.EndToEndMetrics();
  }

  const bool correct = run.gates.failures.empty();
  for (const std::string& failure : run.gates.failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  std::printf("gates: %zu sampled responses checked against the oracles, "
              "%s\n",
              run.gates.checked, correct ? "all passed" : "FAILED");
  const std::map<std::string, SpanTotals> totals = SelfTimes(run.spans.spans());
  if (args.trace) {
    std::printf("%-24s %8s %12s %12s\n", "span", "count", "total s", "self s");
    for (const auto& [name, t] : totals) {
      std::printf("%-24s %8zu %12.6f %12.6f\n", name.c_str(), t.count,
                  t.total_s, t.self_s);
    }
    if (!args.spans_path.empty()) WriteSpans(run.spans.spans(), args.spans_path);
  }
  const Metrics& metrics = args.trace ? run.layer : run.e2e;
  for (const Metric& m : metrics.all()) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::size_t attempted = std::max<std::size_t>(1, run.attempted);
  if (!args.record.empty()) {
    std::ofstream out(args.record);
    if (!out) Die("cannot write " + args.record);
    out << "{\"workload\": \"" << found->name << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << Num(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << run.failed
        << ", \"metrics\": " << metrics.Json()
        << ", \"provenance\": {\"nproc\": " << run.cpus
        << ", \"fit_threads\": " << run.cpus
        << ", \"pool_threads\": " << run.pool_threads
        << ", \"load_threads\": " << run.load_threads
        << ", \"connections\": " << kConnections
        << ", \"probe_connections\": " << kProbeConnections
        << ", \"seed\": " << args.seed
        << ", \"workload_params\": " << WorkloadJson(*found) << "}"
        << ", \"fit_publish\": {\"fit_wall_s\": " << Num(run.fit_s)
        << ", \"fit_cpu_s\": " << Num(run.fit_cpu_s)
        << ", \"publish_wall_s\": " << Num(run.publish_s)
        << ", \"publish_cpu_s\": " << Num(run.publish_cpu_s) << "}"
        << ", \"gates\": {\"checked\": " << run.gates.checked
        << ", \"failures\": " << run.gates.failures.size() << "}"
        << ", \"phases\": [" << run.phases_json << "]"
        << ", \"spans\": " << SpanTableJson(totals) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, run.failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(perfbench::ParseArgs(argc, argv));
}
