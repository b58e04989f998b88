#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/index.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/oracle_scheduler.h"
#include "serve/server.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using tasti::core::AtLeastCountScorer;
using tasti::core::CountScorer;
using tasti::core::PresenceScorer;
using tasti::core::Scorer;
using tasti::data::ObjectClass;
using tasti::serve::QueryKind;
using tasti::serve::QueryResponse;
using tasti::serve::QuerySpec;

constexpr QueryKind kAllKinds[] = {
    QueryKind::kAggregate,     QueryKind::kAggregateWhere,
    QueryKind::kSupgRecall,    QueryKind::kSupgPrecision,
    QueryKind::kThresholdSelect, QueryKind::kLimit,
};

// Query targets shared by every workload.
constexpr double kErrorTarget = 0.05;
constexpr double kSupgTarget = 0.9;
constexpr size_t kBudget = 500;
constexpr size_t kWant = 10;

// The dataset and index are fixed fixtures (the library's default seed);
// the run's seed draws the query side: session/server seeds and the
// dashboard's query order. Seeded datasets differ so much in how many
// samples count(car) needs at error 0.05 (13k to 32k oracle calls at
// N=100k) that run-to-run spread would hide any change.
constexpr uint64_t kDatasetSeed = 42;

struct Shape {
  size_t records = 0;
  size_t train = 0;
  size_t reps = 0;
  bool server = false;
  double oracle_latency_ms = 0.0;
  bool auto_crack = true;
  bool parallel_dispatch = false;
  size_t clients = 1;
  size_t queries_per_client = 0;
  size_t trials = 1;
};

bool ShapeFor(const RunConfig& config, Shape* shape) {
  Shape s;
  if (config.workload == "analyst") {
    s.records = config.tiny ? 4000 : 100000;
    s.train = config.tiny ? 200 : 1000;
    s.reps = config.tiny ? 300 : 1000;
    s.trials = 2;
  } else if (config.workload == "serve") {
    s.records = config.tiny ? 3000 : 20000;
    s.train = config.tiny ? 150 : 300;
    s.reps = config.tiny ? 200 : 500;
    s.server = true;
    s.oracle_latency_ms = 2.0;
    s.parallel_dispatch = true;
    s.clients = 4;
    s.queries_per_client = config.tiny ? 6 : 25;
  } else if (config.workload == "dashboard") {
    s.records = config.tiny ? 4000 : 100000;
    s.train = config.tiny ? 200 : 1000;
    s.reps = config.tiny ? 300 : 1000;
    s.server = true;
    s.auto_crack = false;
    s.clients = 4;
    s.queries_per_client = config.tiny ? 6 : 25;
  } else {
    return false;
  }
  *shape = s;
  return true;
}

size_t HostThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// SimulatedLabeler (zero faults) -> FallibleAdapter -> optional injected
// latency -> TimedOracle, the benchmark's counting decorator.
struct OracleStack {
  OracleStack(const tasti::data::Dataset* dataset, double latency_ms)
      : sim(dataset), adapter(&sim) {
    tasti::labeler::FallibleLabeler* top = &adapter;
    if (latency_ms > 0) {
      latency = std::make_unique<tasti::serve::LatencyInjectingOracle>(
          &adapter, latency_ms);
      top = latency.get();
    }
    timed = std::make_unique<TimedOracle>(top);
  }
  tasti::labeler::SimulatedLabeler sim;
  tasti::labeler::FallibleAdapter adapter;
  std::unique_ptr<tasti::serve::LatencyInjectingOracle> latency;
  std::unique_ptr<TimedOracle> timed;
};

// One set-up: dataset, oracle and a built index behind a session or a
// started server. Members are destroyed server/session first.
struct System {
  std::unique_ptr<tasti::data::Dataset> dataset;
  std::unique_ptr<OracleStack> oracle;
  std::unique_ptr<tasti::api::TastiSession> session;
  std::unique_ptr<tasti::serve::TastiServer> server;
  double generate_s = 0.0;
  double build_s = 0.0;
  size_t setup_oracle_calls = 0;

  size_t representatives() {
    if (session != nullptr) return session->index().num_representatives();
    return server->epochs().Acquire()->rep_record_ids.size();
  }
};

std::unique_ptr<System> SetUp(const Shape& shape, uint64_t seed) {
  auto system = std::make_unique<System>();
  const Clock::time_point start = Clock::now();
  {
    TASTI_SPAN("bench.generate");
    tasti::data::DatasetOptions options;
    options.num_records = shape.records;
    options.seed = kDatasetSeed;
    system->dataset = std::make_unique<tasti::data::Dataset>(
        tasti::data::MakeDataset(tasti::data::DatasetId::kNightStreet, options));
  }
  system->generate_s = SecondsSince(start);

  const Clock::time_point build_start = Clock::now();
  system->oracle = std::make_unique<OracleStack>(system->dataset.get(),
                                                 shape.oracle_latency_ms);
  tasti::core::IndexOptions index;
  index.num_training_records = shape.train;
  index.num_representatives = shape.reps;
  index.k = 5;
  index.seed = kDatasetSeed;
  if (shape.server) {
    tasti::serve::ServerOptions options;
    options.index = index;
    options.seed = seed;
    options.num_workers = std::min<size_t>(4, HostThreads());
    options.max_pending = 2 * shape.clients + 1;
    options.auto_crack = shape.auto_crack;
    options.scheduler.parallel_dispatch = shape.parallel_dispatch;
    options.scheduler.dispatch_threads = std::min<size_t>(4, HostThreads());
    system->server = std::make_unique<tasti::serve::TastiServer>(
        system->dataset.get(), system->oracle->timed.get(), options);
    TASTI_SPAN("bench.start");
    const tasti::Status status = system->server->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return nullptr;
    }
    system->setup_oracle_calls = system->server->index_invocations();
  } else {
    tasti::api::SessionOptions options;
    options.index = index;
    options.seed = seed;
    system->session = std::make_unique<tasti::api::TastiSession>(
        system->dataset.get(), system->oracle->timed.get(), options);
    TASTI_SPAN("bench.build");
    system->session->index();
    system->setup_oracle_calls = system->session->index_invocations();
  }
  system->build_s = SecondsSince(build_start);
  return system;
}

// The scorers a workload's queries name; they outlive every query.
struct Scorers {
  CountScorer car_count{ObjectClass::kCar};
  PresenceScorer car_present{ObjectClass::kCar};
  AtLeastCountScorer car_2{ObjectClass::kCar, 2};
  AtLeastCountScorer car_3{ObjectClass::kCar, 3};
  AtLeastCountScorer car_4{ObjectClass::kCar, 4};
  CountScorer bus_count{ObjectClass::kBus};
  PresenceScorer bus_present{ObjectClass::kBus};
  AtLeastCountScorer bus_2{ObjectClass::kBus, 2};
  AtLeastCountScorer bus_3{ObjectClass::kBus, 3};
};

QuerySpec MakeSpec(QueryKind kind, const Scorer* scorer,
                   const Scorer* statistic) {
  QuerySpec spec;
  spec.kind = kind;
  spec.scorer = scorer;
  spec.statistic = statistic;
  spec.error_target = kErrorTarget;
  spec.target = kSupgTarget;
  spec.budget = kBudget;
  spec.validation_budget = kBudget;
  spec.want = kWant;
  return spec;
}

// Query script per client. `analyst` is one caller running the baseline
// script of ROADMAP.md's measurements; `serve` cycles every client through
// all six kinds on car scorers; `dashboard` deals every (kind, scorer)
// pair in a seeded order.
std::vector<std::vector<QuerySpec>> Script(const std::string& workload,
                                           const Shape& shape, uint64_t seed,
                                           const Scorers& s) {
  std::vector<std::vector<QuerySpec>> script(shape.clients);
  if (workload == "analyst") {
    script[0] = {
        MakeSpec(QueryKind::kAggregate, &s.car_count, nullptr),
        MakeSpec(QueryKind::kSupgRecall, &s.car_2, nullptr),
        MakeSpec(QueryKind::kSupgPrecision, &s.car_2, nullptr),
        MakeSpec(QueryKind::kThresholdSelect, &s.car_2, nullptr),
        MakeSpec(QueryKind::kLimit, &s.car_4, nullptr),
    };
  } else if (workload == "serve") {
    for (size_t c = 0; c < shape.clients; ++c) {
      for (size_t q = 0; q < shape.queries_per_client; ++q) {
        const QueryKind kind = kAllKinds[(c + q) % 6];
        const Scorer* scorer = &s.car_2;
        const Scorer* statistic = nullptr;
        if (kind == QueryKind::kAggregate) scorer = &s.car_present;
        if (kind == QueryKind::kAggregateWhere) {
          scorer = &s.car_present;
          statistic = &s.car_3;
        }
        if (kind == QueryKind::kLimit) scorer = &s.car_4;
        script[c].push_back(MakeSpec(kind, scorer, statistic));
      }
    }
  } else {
    // Every (kind, scorer) pair equally often, and every client the same
    // load: per kind, two car and two bus scorers (offsets k+c, k+c+2,
    // k+c+4, k+c+6 of the eight), in a seeded order per client. The 25th
    // query of each client is one more aggregate-where on a car predicate,
    // the slowest kind, so that more than a tenth of the queries are slow
    // ones and p90 lies inside their cluster rather than at its edge.
    const Scorer* scorers[] = {&s.car_count, &s.car_present, &s.car_2,
                               &s.car_3,     &s.bus_count,   &s.bus_present,
                               &s.bus_2,     &s.bus_3};
    std::mt19937_64 rng(seed);
    for (size_t c = 0; c < shape.clients; ++c) {
      for (size_t i = 0; i < shape.queries_per_client; ++i) {
        const size_t k = i < 24 ? i % 6 : 1;
        const size_t pick = i < 24 ? (k + c + 2 * (i / 6)) % 8 : c % 4;
        const Scorer* statistic =
            kAllKinds[k] == QueryKind::kAggregateWhere ? &s.car_count : nullptr;
        script[c].push_back(MakeSpec(kAllKinds[k], scorers[pick], statistic));
      }
      for (size_t i = script[c].size(); i > 1; --i) {
        std::swap(script[c][i - 1], script[c][rng() % i]);
      }
    }
  }
  for (size_t c = 0; c < script.size(); ++c) {
    for (QuerySpec& spec : script[c]) spec.client_id = c;
  }
  return script;
}

struct Answer {
  QuerySpec spec;
  QueryResponse response;
  double latency_ms = 0.0;
};

struct Phase {
  std::vector<Answer> answers;
  double seconds = 0.0;
  size_t oracle_calls = 0;
  size_t reps_added = 0;
};

QueryResponse RunOnSession(tasti::api::TastiSession* session,
                           const QuerySpec& spec) {
  QueryResponse r;
  r.kind = spec.kind;
  switch (spec.kind) {
    case QueryKind::kAggregate:
      r.aggregate = session->Aggregate(*spec.scorer, spec.error_target);
      break;
    case QueryKind::kAggregateWhere:
      r.aggregate_where = session->AggregateWhere(
          *spec.scorer, *spec.statistic, spec.error_target);
      break;
    case QueryKind::kSupgRecall:
      r.supg = session->SelectWithRecall(*spec.scorer, spec.target, spec.budget);
      break;
    case QueryKind::kSupgPrecision:
      r.supg =
          session->SelectWithPrecision(*spec.scorer, spec.target, spec.budget);
      break;
    case QueryKind::kThresholdSelect:
      r.select = session->Select(*spec.scorer, spec.validation_budget);
      break;
    case QueryKind::kLimit:
      r.limit = session->Limit(*spec.scorer, spec.want);
      break;
  }
  r.status = session->last_query_status();
  return r;
}

// First query to last response, cracks and Drain() included. Clients are
// closed loops: each sends its next query when the previous returns.
Phase RunQueries(System* system,
                 const std::vector<std::vector<QuerySpec>>& script) {
  Phase phase;
  const size_t calls_before = system->oracle->timed->calls();
  const size_t reps_before = system->representatives();
  std::vector<std::vector<Answer>> per_client(script.size());
  auto client = [&](size_t c) {
    for (const QuerySpec& spec : script[c]) {
      Answer answer;
      answer.spec = spec;
      TASTI_SPAN("bench.query");
      const Clock::time_point start = Clock::now();
      answer.response = system->session != nullptr
                            ? RunOnSession(system->session.get(), spec)
                            : system->server->Execute(spec);
      answer.latency_ms = SecondsSince(start) * 1e3;
      per_client[c].push_back(std::move(answer));
    }
  };
  const Clock::time_point start = Clock::now();
  if (script.size() == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < script.size(); ++c) threads.emplace_back(client, c);
    for (std::thread& thread : threads) thread.join();
  }
  if (system->server != nullptr) {
    TASTI_SPAN("bench.drain");
    system->server->Drain();
  }
  phase.seconds = SecondsSince(start);
  phase.oracle_calls = system->oracle->timed->calls() - calls_before;
  phase.reps_added = system->representatives() - reps_before;
  for (auto& answers : per_client) {
    for (Answer& answer : answers) phase.answers.push_back(std::move(answer));
  }
  return phase;
}

void CheckAnswer(const Answer& answer, Checker* checker, Truth* truth,
                 Digest* digest) {
  const QuerySpec& spec = answer.spec;
  const QueryResponse& r = answer.response;
  checker->BeginQuery();
  checker->Expect(r.status.ok(), std::string(tasti::serve::QueryKindName(
                                     spec.kind)) +
                                     " status: " + r.status.ToString());
  checker->Expect(!r.degraded, "degraded response");
  digest->AddU64(static_cast<uint64_t>(spec.kind));
  switch (spec.kind) {
    case QueryKind::kAggregate:
      checker->CoverInterval(r.aggregate.estimate, r.aggregate.half_width,
                             truth->Mean(*spec.scorer));
      digest->AddDouble(r.aggregate.estimate);
      break;
    case QueryKind::kAggregateWhere:
      if (truth->Positives(*spec.scorer) > 0) {
        checker->CoverInterval(
            r.aggregate_where.estimate, r.aggregate_where.half_width,
            truth->MeanWhere(*spec.scorer, *spec.statistic));
      }
      digest->AddDouble(r.aggregate_where.estimate);
      break;
    case QueryKind::kSupgRecall:
      checker->CheckIds(r.supg.selected, "supg_recall");
      checker->CoverRecall(r.supg.selected, *spec.scorer, spec.target);
      digest->AddIds(r.supg.selected);
      break;
    case QueryKind::kSupgPrecision:
      checker->CheckIds(r.supg.selected, "supg_precision");
      checker->CoverPrecision(r.supg.selected, *spec.scorer, spec.target);
      digest->AddIds(r.supg.selected);
      break;
    case QueryKind::kThresholdSelect:
      checker->CheckIds(r.select.selected, "threshold_select");
      digest->AddIds(r.select.selected);
      break;
    case QueryKind::kLimit:
      checker->CheckMatches(r.limit.found, *spec.scorer);
      digest->AddIds(r.limit.found);
      break;
  }
  checker->EndQuery();
}

// The attribution invariant: every physical oracle call is charged to the
// index build or to exactly one query.
void CheckAttribution(System* system, Checker* checker) {
  const size_t labeler_calls = system->oracle->sim.invocations();
  checker->ExpectInvariant(system->oracle->timed->calls() == labeler_calls,
                           "decorator and labeler disagree on oracle calls");
  if (system->server != nullptr) {
    const tasti::Status status = system->server->CheckAttributionInvariant();
    checker->ExpectInvariant(status.ok(), status.ToString());
  } else {
    checker->ExpectInvariant(
        system->session->query_log().total_invocations() == labeler_calls,
        "query log total " +
            std::to_string(system->session->query_log().total_invocations()) +
            " != labeler calls " + std::to_string(labeler_calls));
  }
}

std::vector<double> Latencies(const Phase& phase, const char* kind) {
  std::vector<double> out;
  for (const Answer& a : phase.answers) {
    if (kind == nullptr ||
        std::string(tasti::serve::QueryKindName(a.spec.kind)) == kind) {
      out.push_back(a.latency_ms);
    }
  }
  return out;
}

// What the trials of a run leave behind once their systems are gone:
// per-trial figures, reported as medians, and latencies pooled over trials.
struct Tally {
  std::vector<double> setup_s;
  std::vector<double> phase_s;
  std::vector<double> qps;
  std::vector<double> oracle_calls;
  std::vector<double> setup_oracle_calls;
  std::vector<double> latencies_ms;
  size_t attempted = 0;
  size_t failed = 0;
  bool invariant_ok = true;
  size_t guarantees_checked = 0;
  size_t guarantees_met = 0;
  Digest digest;

  void Absorb(const Checker& checker) {
    attempted += checker.attempted();
    failed += checker.failed();
    invariant_ok = invariant_ok && checker.invariant_ok();
    guarantees_checked += checker.guarantees_checked();
    guarantees_met += checker.guarantees_met();
  }
};

void EndToEndMetrics(const Tally& t, MetricSet* m) {
  m->Add("setup_s", Median(t.setup_s), "s");
  m->Add("query_phase_s", Median(t.phase_s), "s");
  m->Add("throughput_qps", Median(t.qps), "1/s");
  m->Add("latency_p90_ms", Quantile(t.latencies_ms, 0.9), "ms");
  m->Add("oracle_calls", Median(t.oracle_calls), "count");
  m->Add("setup_oracle_calls", Median(t.setup_oracle_calls), "count");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  m->Add("ok_fraction",
         1.0 - static_cast<double>(t.failed) /
                   static_cast<double>(std::max<size_t>(1, t.attempted)),
         "ratio");
}

double CounterValue(const std::vector<tasti::obs::MetricSample>& samples,
                    const std::string& name) {
  for (const auto& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  return 0.0;
}

void LayerMetrics(const System& system, const Phase& phase,
                  double untraced_phase_s, double trial_wall_s,
                  MetricSet* m) {
  const auto spans =
      AggregateSpans(tasti::obs::TraceRecorder::Global().Snapshot());
  auto self = [&spans](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      auto it = spans.find(name);
      if (it != spans.end()) total += it->second.self_s;
    }
    return total;
  };
  auto calls = [&spans](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      auto it = spans.find(name);
      if (it != spans.end()) total += static_cast<double>(it->second.calls);
    }
    return total;
  };
  const auto samples = tasti::obs::MetricsRegistry::Global().Samples();

  m->Add("data.generate_s", system.generate_s, "s");
  m->Add("core.build_s", system.build_s, "s");
  m->Add("index.fpf_mine.self_s", self({"index.fpf_mine"}), "s");
  m->Add("index.triplet_train.self_s", self({"index.triplet_train"}), "s");
  m->Add("index.embed.self_s", self({"index.embed"}), "s");
  m->Add("index.select_reps.self_s", self({"index.select_reps"}), "s");
  m->Add("index.min_k.self_s", self({"index.min_k"}), "s");

  m->Add("index.crack.self_s", self({"index.crack"}), "s");
  m->Add("index.crack.calls", calls({"index.crack"}), "count");
  m->Add("index.crack.reps_added", static_cast<double>(phase.reps_added),
         "count");
  m->Add("serve.crack.self_s", self({"serve.crack"}), "s");

  const double one_to_many = CounterValue(samples, "kernels.one_to_many.rows");
  const double pack_rows = CounterValue(samples, "kernels.pack_blocks.rows");
  m->Add("kernels.one_to_many.rows", one_to_many, "rows");
  m->Add("kernels.gemmbt.cells", CounterValue(samples, "kernels.gemmbt.cells"),
         "cells");
  m->Add("kernels.pack_blocks.rows", pack_rows, "rows");
  // Computed, not measured: rows streamed times the embedding width.
  const double dim = static_cast<double>(tasti::core::IndexOptions{}.embedding_dim);
  m->Add("kernels.bytes_est", (one_to_many + pack_rows) * dim * 4.0,
         "bytes_computed");

  m->Add("query.proxy.self_s",
         self({"query.proxy.rep_scores", "query.proxy.propagate",
               "query.proxy.rep_scores_delta", "query.proxy.propagate_delta"}),
         "s");
  m->Add("query.proxy.calls",
         calls({"query.proxy.propagate", "query.proxy.propagate_delta"}),
         "count");
  m->Add("query.agg.sample.self_s", self({"query.agg.sample"}), "s");
  m->Add("query.predagg.sample.self_s", self({"query.predagg.sample"}), "s");
  m->Add("query.supg.self_s", self({"query.supg.sample", "query.supg.threshold"}),
         "s");
  m->Add("query.select.validate.self_s", self({"query.select.validate"}), "s");
  m->Add("query.limit.scan.self_s", self({"query.limit.scan"}), "s");
  for (QueryKind kind : kAllKinds) {
    const char* name = tasti::serve::QueryKindName(kind);
    m->Add(std::string("query.") + name + ".p50_ms",
           Quantile(Latencies(phase, name), 0.5), "ms");
  }

  const TimedOracle& oracle = *system.oracle->timed;
  m->Add("oracle.calls", static_cast<double>(phase.oracle_calls), "count");
  m->Add("oracle.wait_s", oracle.wait_seconds(), "s");
  m->Add("oracle.failed", static_cast<double>(oracle.failed()), "count");

  tasti::serve::SchedulerStats sched;
  tasti::serve::ScoreCacheStats cache;
  tasti::serve::ServerStats server;
  if (system.server != nullptr) {
    sched = system.server->scheduler_stats();
    cache = system.server->score_cache_stats();
    server = system.server->stats();
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  m->Add("scheduler.logical_requests", static_cast<double>(sched.logical_requests),
         "count");
  m->Add("scheduler.physical_calls", static_cast<double>(sched.physical_calls),
         "count");
  m->Add("scheduler.cache_hits", static_cast<double>(sched.cache_hits), "count");
  m->Add("scheduler.dedup_hits", static_cast<double>(sched.dedup_hits), "count");
  m->Add("scheduler.batches", static_cast<double>(sched.batches), "count");
  m->Add("scheduler.mean_batch",
         ratio(static_cast<double>(sched.physical_calls),
               static_cast<double>(sched.batches)),
         "calls");
  m->Add("scheduler.saved_ratio",
         ratio(static_cast<double>(sched.saved_calls()),
               static_cast<double>(sched.logical_requests)),
         "ratio");

  m->Add("score_cache.lookups", static_cast<double>(cache.lookups), "count");
  m->Add("score_cache.hits", static_cast<double>(cache.hits), "count");
  m->Add("score_cache.shared", static_cast<double>(cache.shared_hits), "count");
  m->Add("score_cache.delta", static_cast<double>(cache.delta_hits), "count");
  m->Add("score_cache.full", static_cast<double>(cache.full_computes), "count");
  m->Add("score_cache.evictions", static_cast<double>(cache.evictions), "count");
  m->Add("score_cache.delta_rows", static_cast<double>(cache.delta_rows), "rows");
  m->Add("score_cache.delta_ratio",
         ratio(static_cast<double>(cache.delta_hits),
               static_cast<double>(cache.delta_hits + cache.full_computes)),
         "ratio");

  std::vector<double> queue_wait;
  std::vector<double> execute;
  if (system.server != nullptr) {
    for (const Answer& a : phase.answers) {
      queue_wait.push_back(a.response.queue_wait_ms);
      execute.push_back(a.response.execute_seconds * 1e3);
    }
  }
  m->Add("serve.queue_wait_ms.p50", Quantile(queue_wait, 0.5), "ms");
  m->Add("serve.queue_wait_ms.p90", Quantile(queue_wait, 0.9), "ms");
  m->Add("serve.execute_ms.p50", Quantile(execute, 0.5), "ms");
  m->Add("serve.execute_ms.p90", Quantile(execute, 0.9), "ms");
  m->Add("serve.epochs_published", static_cast<double>(server.epochs_published),
         "count");

  const double busy_s = CounterValue(samples, "threadpool.busy_micros") * 1e-6;
  m->Add("threadpool.busy_s", busy_s, "s");
  m->Add("threadpool.utilization",
         ratio(busy_s, trial_wall_s *
                           static_cast<double>(
                               tasti::ThreadPool::Global().num_threads())),
         "ratio");
  m->Add("trace.overhead_ratio", ratio(phase.seconds, untraced_phase_s), "ratio");
}

// Per-trial inputs differ but follow from the run's seed.
uint64_t TrialSeed(uint64_t seed, size_t trial) { return seed * 1000 + trial; }

// Sets up, runs the query script and checks every answer into `tally`.
// Returns the system, still alive, so a traced run can read its layers.
std::unique_ptr<System> RunTrial(const RunConfig& config, const Shape& shape,
                                 uint64_t seed, const Scorers& scorers,
                                 bool timed, Tally* tally, Phase* phase) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<System> system = SetUp(shape, seed);
  if (system == nullptr) return nullptr;
  tally->setup_s.push_back(SecondsSince(start));
  system->oracle->timed->set_timing(timed);
  *phase = RunQueries(system.get(), Script(config.workload, shape, seed, scorers));

  tally->phase_s.push_back(phase->seconds);
  tally->qps.push_back(static_cast<double>(phase->answers.size()) /
                       phase->seconds);
  tally->oracle_calls.push_back(static_cast<double>(phase->oracle_calls));
  tally->setup_oracle_calls.push_back(
      static_cast<double>(system->setup_oracle_calls));
  const std::vector<double> latencies = Latencies(*phase, nullptr);
  tally->latencies_ms.insert(tally->latencies_ms.end(), latencies.begin(),
                             latencies.end());

  Truth truth(system->dataset.get());
  Checker checker(system->dataset.get(), &truth);
  for (const Answer& answer : phase->answers) {
    CheckAnswer(answer, &checker, &truth, &tally->digest);
  }
  CheckAttribution(system.get(), &checker);
  tally->digest.AddU64(phase->oracle_calls);
  tally->Absorb(checker);
  return system;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i > 0 ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace

bool RunWorkload(const RunConfig& config, Report* report) {
  Shape shape;
  if (!ShapeFor(config, &shape)) return false;
  Scorers scorers;
  // `tally` feeds the end-to-end metrics: untraced trials only.
  Tally tally;
  Phase phase;
  if (!config.trace) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < shape.trials; ++i) {
      if (!RunTrial(config, shape, TrialSeed(config.seed, i), scorers, false,
                    &tally, &phase)) {
        return true;
      }
    }
    // setup_s is a median over at least three set-ups; workloads with
    // fewer trials set up again without querying, and any workload keeps
    // setting up until `seconds` have passed.
    while (tally.setup_s.size() < 3 ||
           (SecondsSince(start) < config.seconds && tally.setup_s.size() < 7)) {
      const Clock::time_point setup_start = Clock::now();
      if (SetUp(shape, TrialSeed(config.seed, 0)) == nullptr) return true;
      tally.setup_s.push_back(SecondsSince(setup_start));
    }
    EndToEndMetrics(tally, &report->metrics);
  } else {
    // One untraced trial is the baseline for trace.overhead_ratio; the
    // traced trial repeats it with spans and counters on.
    if (!RunTrial(config, shape, TrialSeed(config.seed, 0), scorers, false,
                  &tally, &phase)) {
      return true;
    }
    const double untraced_phase_s = phase.seconds;
    Tally traced;
    tasti::obs::TraceRecorder::Global().Clear();
    tasti::obs::MetricsRegistry::Global().ResetAll();
    tasti::obs::EnableAll();
    std::unique_ptr<System> system =
        RunTrial(config, shape, TrialSeed(config.seed, 0), scorers, true,
                 &traced, &phase);
    tasti::obs::DisableAll();
    if (system == nullptr) return true;
    LayerMetrics(*system, phase, untraced_phase_s,
                 traced.setup_s[0] + phase.seconds, &report->metrics);
    tally.attempted += traced.attempted;
    tally.failed += traced.failed;
    tally.invariant_ok = tally.invariant_ok && traced.invariant_ok;
  }

  report->attempted = tally.attempted;
  report->failed = tally.failed;
  report->correct = tally.failed == 0 && tally.invariant_ok;
  MetricSet end_to_end;
  EndToEndMetrics(tally, &end_to_end);
  report->details_json =
      "{\"workload\": \"" + config.workload +
      "\", \"seed\": " + std::to_string(config.seed) +
      ", \"trace\": " + (config.trace ? "true" : "false") +
      ", \"tiny\": " + (config.tiny ? "true" : "false") +
      ", \"digest\": \"" + tally.digest.Hex() +
      "\", \"latency_samples\": " + std::to_string(tally.latencies_ms.size()) +
      ", \"setup_samples_s\": " + JsonList(tally.setup_s) +
      ", \"trial_phase_s\": " + JsonList(tally.phase_s) +
      ", \"trial_oracle_calls\": " + JsonList(tally.oracle_calls) +
      ", \"latency_p50_ms\": " + std::to_string(Quantile(tally.latencies_ms, 0.5)) +
      ", \"latencies_ms\": " + JsonList(tally.latencies_ms) +
      ", \"guarantees_checked\": " + std::to_string(tally.guarantees_checked) +
      ", \"guarantees_met\": " + std::to_string(tally.guarantees_met) +
      ", \"attribution_ok\": " + (tally.invariant_ok ? "true" : "false") +
      ", \"end_to_end\": " + end_to_end.ToJson() +
      ", \"env\": " + EnvironmentJson() + "}";
  return true;
}

}  // namespace perfbench
