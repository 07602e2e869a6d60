// Workload `serve`: an in-process service::Server with nproc - 1 workers,
// driven open-loop by one load-generator thread on a seeded arrival
// schedule at a fixed rate below capacity. Three tenants send a mix of
// fresh queries, repeats of popular queries (cache hits while the data
// version holds) and pairs of identical popular queries submitted at the
// same instant (both compute today; single-flight would compute once),
// while appends bump the channels' data epochs between reads. After the
// open-loop schedule drains, bursts of fresh queries arrive all at once:
// how fast the server clears a burst is its capacity. This is the only
// workload that runs admission, the fair-share scheduler and the
// epoch-keyed result cache. Every Submit samples the load probe and runs
// the shed ladder; its bounds sit above the deepest queue the workload
// builds, so no request is degraded or refused unless admission changes.
//
// The generator never spins: it sleeps to each due time, and between
// arrivals it sleeps in kPollResolutionS steps, sweeping Poll over the
// outstanding requests. Latency runs from each request's due time to the
// sweep that saw it finish, so it includes any lag of the generator.

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/relations.h"
#include "harness.h"
#include "jobs/admission.h"
#include "obs/metrics.h"
#include "service/server.h"

namespace perfbench {
namespace {

using tycos::TycosParams;
using tycos::datagen::RelationType;
using tycos::service::RequestState;
using tycos::service::RequestStatus;
using tycos::service::SearchRequest;
using tycos::service::Server;

constexpr int kTenants = 3;
constexpr int kPairs = 24;  // channel pair p belongs to tenant p % kTenants
constexpr int64_t kSegment = 120;
constexpr int64_t kGap = 80;
constexpr int kSegments = 6;
constexpr int64_t kFullLength = kSegments * kSegment + (kSegments + 1) * kGap;
constexpr int64_t kInitialLength = 400;  // ingested at set-up
constexpr int64_t kChunk = 32;            // samples per append
constexpr int kRounds = 2;
constexpr int kSetups = 5;
// About a third of the open-loop rate at which queueing sets in with
// three workers on a 4-vCPU host (see README.md).
constexpr double kRequestsPerS = 30.0;
constexpr double kAppendsPerS = 3.0;  // pair appends (both channels)
// Fresh queries per burst, and bursts after each open-loop round.
constexpr int kBurst = 96;
constexpr int kBurstsPerRound = 2;
// Shed ladder on requests in flight: above a whole burst, so it samples
// on every Submit without firing.
constexpr int64_t kQueueSoft = 2 * kBurst;
constexpr int64_t kQueueHard = 4 * kBurst;
// Share of arrivals per kind; the rest are fresh queries.
// Hits stay well under half of all requests, so latency_p50_ms measures
// computed answers rather than flipping between the two populations.
constexpr double kPopularShare = 0.25;
constexpr double kConcurrentShare = 0.10;
constexpr double kPollResolutionS = 0.0005;
// Burst requests slower than this (and refused or failed ones) miss
// goodput. About half a burst finishes within it, so it binds.
constexpr double kLatencyLimitS = 0.5;
constexpr int64_t kDelayTolerance = 4;

// Relations the small-window queries below find reliably (sine, cross
// and circle segments are missed often enough to make recall noisy).
const RelationType kRelations[] = {RelationType::kLinear,
                                   RelationType::kQuadratic};

// Every request searches with these params; requests differ in channel
// pair and seed.
TycosParams QueryParams() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 16;
  p.s_max = 64;
  p.td_max = 8;
  p.delta = 4;
  return p;
}
constexpr uint64_t kPopularSeed = 42;

std::string ChannelName(int pair, int side) {
  return "p" + std::to_string(pair) + (side == 0 ? ".x" : ".y");
}

struct PairData {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<tycos::Window> planted;
};

std::vector<PairData> Generate(uint64_t seed) {
  std::vector<PairData> data;
  tycos::Rng rng(seed);
  for (int p = 0; p < kPairs; ++p) {
    std::vector<tycos::datagen::SegmentSpec> segments;
    for (int s = 0; s < kSegments; ++s) {
      segments.push_back({kRelations[(p + s) % std::size(kRelations)],
                          kSegment, rng.UniformInt(1, 8)});
    }
    const auto ds = tycos::datagen::ComposeDataset(
        segments, kGap, seed * 131 + static_cast<uint64_t>(p));
    PairData d;
    d.x.assign(ds.pair.x().values().begin(),
               ds.pair.x().values().begin() + kFullLength);
    d.y.assign(ds.pair.y().values().begin(),
               ds.pair.y().values().begin() + kFullLength);
    for (const auto& r : ds.planted) d.planted.push_back(r.AsWindow());
    data.push_back(std::move(d));
  }
  return data;
}

struct Event {
  double due = 0.0;  // seconds after the round starts
  bool append = false;
  int pair = 0;
  // Submits only.
  int tenant = 0;
  uint64_t seed = kPopularSeed;
};

// The seeded open-loop schedule: evenly spaced arrivals with +-40% jitter,
// plus pair appends at their own rate.
std::vector<Event> Schedule(uint64_t seed, double span_s,
                            double requests_per_s) {
  tycos::Rng rng(seed ^ 0x5eedULL);
  std::vector<Event> events;
  uint64_t fresh_seed = 1000;
  const int arrivals = static_cast<int>(span_s * requests_per_s);
  for (int i = 0; i < arrivals; ++i) {
    Event e;
    e.due = (i + 0.5 + rng.Uniform(-0.4, 0.4)) / requests_per_s;
    e.pair = static_cast<int>(rng.UniformInt(0, kPairs - 1));
    e.tenant = e.pair % kTenants;
    const double kind = rng.Uniform();
    if (kind < kPopularShare) {
      events.push_back(e);
    } else if (kind < kPopularShare + kConcurrentShare) {
      events.push_back(e);
      e.tenant = (e.tenant + 1) % kTenants;  // same query, another tenant
      events.push_back(e);
    } else {
      e.seed = ++fresh_seed;
      events.push_back(e);
    }
  }
  const int appends = static_cast<int>(span_s * kAppendsPerS);
  for (int i = 0; i < appends; ++i) {
    Event e;
    e.append = true;
    e.due = (i + 0.5 + rng.Uniform(-0.4, 0.4)) / kAppendsPerS;
    e.pair = static_cast<int>(rng.UniformInt(0, kPairs - 1));
    events.push_back(e);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due < b.due;
                   });
  return events;
}

// Burst b: kBurst fresh queries spread over the pairs and so the tenants.
// Their seeds start far above any the schedule uses.
std::vector<Event> Burst(uint64_t seed, int b) {
  tycos::Rng rng(seed ^ (0xb0b0ULL + static_cast<uint64_t>(b)));
  std::vector<Event> events;
  for (int i = 0; i < kBurst; ++i) {
    Event e;
    e.pair = static_cast<int>(rng.UniformInt(0, kPairs - 1));
    e.tenant = e.pair % kTenants;
    e.seed = 1000000 + static_cast<uint64_t>(b) * kBurst + i;
    events.push_back(e);
  }
  return events;
}

// One finished request as the generator saw it.
struct Completion {
  int pair = 0;
  uint64_t seed = 0;
  bool burst = false;
  double latency_s = 0.0;
  RequestStatus status;
};

struct RoundResult {
  std::vector<Completion> done;
  std::vector<double> lag_s;
  std::vector<double> submit_s;
  std::vector<double> append_s;
  std::vector<double> queue_depth;
  std::vector<double> burst_makespan_s;
  int64_t burst_within = 0;  // burst requests done within kLatencyLimitS
  int64_t submits = 0;
  int64_t refused = 0;  // Submit errors
  int64_t append_errors = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Counters moved by the whole round, and by its open-loop part alone.
  CounterBlock counters;
  CounterBlock open_loop_counters;
};

class Serve {
 public:
  explicit Serve(const Options& opts)
      : opts_(opts),
        requests_per_s_(opts.rate > 0.0 ? opts.rate : kRequestsPerS) {}

  Report Run();

 private:
  std::unique_ptr<Server> Setup(double* setup_s);
  // The open-loop schedule, then the bursts, on one server.
  RoundResult RunRound(Server* server, bool traced);
  // Samples a channel holds at data epoch `epoch` (the same for every
  // channel), or -1 for an epoch no channel reaches.
  int64_t LengthAt(int64_t epoch) const;
  void Verify(std::vector<RoundResult>* rounds, Report* report,
              Replay* replay, CounterBlock* replay_counters);

  const Options& opts_;
  const double requests_per_s_;
  std::vector<PairData> data_;
  std::vector<Event> schedule_;
  // Events of each burst; fresh seeds, distinct from the schedule's.
  std::vector<std::vector<Event>> bursts_;
  // Highest data epoch any channel reaches in a round (every round runs the
  // same schedule, so it appends the same chunks in the same order).
  int64_t max_epoch_ = 0;
  double recall_ = 0.0;
};

std::unique_ptr<Server> Serve::Setup(double* setup_s) {
  const double t0 = NowSeconds();
  data_ = Generate(opts_.seed);
  tycos::service::ServiceOptions so;
  so.num_workers = std::max(1, opts_.nproc - 1);
  so.shed.queue_soft = kQueueSoft;
  so.shed.queue_hard = kQueueHard;
  auto server = Server::Create(so);
  if (!server.ok()) {
    TheGate().Check(false, "Server::Create: " + server.status().message());
    return nullptr;
  }
  for (int p = 0; p < kPairs; ++p) {
    for (int side = 0; side < 2; ++side) {
      const std::vector<double>& v = side == 0 ? data_[p].x : data_[p].y;
      const tycos::Status st = server.value()->Append(
          ChannelName(p, side),
          std::vector<double>(v.begin(), v.begin() + kInitialLength));
      TheGate().Check(st.ok(), "initial ingest: " + st.message());
    }
  }
  *setup_s = NowSeconds() - t0;
  return std::move(server.value());
}

int64_t Serve::LengthAt(int64_t epoch) const {
  // Epoch 1 is the empty channel; the initial ingest makes it 2 and every
  // append adds one chunk.
  if (epoch < 2 || epoch > max_epoch_) return -1;
  return kInitialLength + (epoch - 2) * kChunk;
}

RoundResult Serve::RunRound(Server* server, bool traced) {
  RoundResult round;
  tycos::obs::Gauge* depth = tycos::obs::GetGauge("service.queue_depth");
  std::vector<int64_t> appended(kPairs, 0);
  struct Outstanding {
    int64_t id;
    double due;
    const Event* event;
    bool burst;
  };
  std::vector<Outstanding> outstanding;

  const auto sweep = [&](double now) {
    size_t keep = 0;
    for (const Outstanding& o : outstanding) {
      auto st = server->Poll(o.id);
      const bool terminal = !st.ok() ||
                            (st.value().state != RequestState::kQueued &&
                             st.value().state != RequestState::kRunning);
      if (!terminal) {
        outstanding[keep++] = o;
        continue;
      }
      Completion c;
      c.pair = o.event->pair;
      c.seed = o.event->seed;
      c.burst = o.burst;
      c.latency_s = now - o.due;
      if (st.ok()) {
        c.status = std::move(st.value());
      } else {
        c.status.state = RequestState::kFailed;
        c.status.error = st.status();
      }
      round.done.push_back(std::move(c));
    }
    outstanding.resize(keep);
  };

  const auto sleep_until = [&](double t) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, t - NowSeconds())));
  };
  const auto submit = [&](const Event& e, double due, bool burst) {
    SearchRequest req;
    req.tenant = "tenant-" + std::to_string(e.tenant);
    req.channel_a = ChannelName(e.pair, 0);
    req.channel_b = ChannelName(e.pair, 1);
    req.params = QueryParams();
    req.seed = e.seed;
    const double s0 = NowSeconds();
    auto id = server->Submit(req);
    round.submit_s.push_back(NowSeconds() - s0);
    ++round.submits;
    if (!id.ok()) {
      ++round.refused;
      return;
    }
    outstanding.push_back({id.value(), due, &e, burst});
  };
  const auto drain = [&] {
    while (!outstanding.empty()) {
      sleep_until(NowSeconds() + kPollResolutionS);
      sweep(NowSeconds());
    }
  };

  const CounterBlock before = Counters();
  const double cpu0 = CpuSeconds();
  const double start = NowSeconds();
  for (const Event& e : schedule_) {
    const double due = start + e.due;
    for (double now = NowSeconds(); now < due; now = NowSeconds()) {
      sleep_until(std::min(due, now + kPollResolutionS));
      sweep(NowSeconds());
    }
    const double t0 = NowSeconds();
    round.lag_s.push_back(t0 - due);
    if (e.append) {
      for (int side = 0; side < 2; ++side) {
        const std::vector<double>& v =
            side == 0 ? data_[e.pair].x : data_[e.pair].y;
        const int64_t from = kInitialLength + appended[e.pair] * kChunk;
        const double a0 = NowSeconds();
        const tycos::Status st = server->Append(
            ChannelName(e.pair, side),
            std::vector<double>(v.begin() + from, v.begin() + from + kChunk));
        round.append_s.push_back(NowSeconds() - a0);
        if (!st.ok()) ++round.append_errors;
      }
      ++appended[e.pair];
      continue;
    }
    if (traced) {
      round.queue_depth.push_back(static_cast<double>(depth->Value()));
    }
    submit(e, due, false);
  }
  drain();
  round.wall_s = NowSeconds() - start;
  round.cpu_s = CpuSeconds() - cpu0;
  round.open_loop_counters = Delta(Counters(), before);

  for (const std::vector<Event>& burst : bursts_) {
    const size_t first = round.done.size();
    const double t0 = NowSeconds();
    for (const Event& e : burst) submit(e, t0, true);
    drain();
    double makespan = 0.0;
    for (size_t i = first; i < round.done.size(); ++i) {
      const Completion& c = round.done[i];
      makespan = std::max(makespan, c.latency_s);
      if (c.status.state == RequestState::kDone && !c.status.outcome.partial &&
          c.latency_s <= kLatencyLimitS) {
        ++round.burst_within;
      }
    }
    round.burst_makespan_s.push_back(makespan);
  }
  round.counters = Delta(Counters(), before);
  return round;
}

// Every admitted request must be done, unpartial, and equal to a cold
// direct Tycos run over the data its epochs name, with the params its shed
// level ran. Computes planted recall over the same answers.
void Serve::Verify(std::vector<RoundResult>* rounds, Report* report,
                   Replay* replay, CounterBlock* replay_counters) {
  Gate& gate = TheGate();
  // (pair, seed, searched length, shed level) -> index of its reference job.
  using Key = std::tuple<int, uint64_t, int64_t, int>;
  std::map<Key, size_t> key_to_job;
  std::vector<ReplayJob> jobs;
  std::vector<std::pair<int, int64_t>> job_inputs;  // (pair, length)
  for (RoundResult& round : *rounds) {
    for (Completion& c : round.done) {
      const RequestStatus& st = c.status;
      const int64_t la = LengthAt(static_cast<int64_t>(st.epoch_a));
      const int64_t lb = LengthAt(static_cast<int64_t>(st.epoch_b));
      gate.Check(st.state == RequestState::kDone && !st.outcome.partial,
                 std::string("serve: a request ended ") +
                     tycos::service::RequestStateName(st.state) +
                     (st.outcome.partial ? " (partial)" : ""));
      gate.Check(la > 0 && lb > 0, "serve: an answer names an unknown epoch");
      if (st.state != RequestState::kDone || la <= 0 || lb <= 0) continue;
      const Key key{c.pair, c.seed, std::min(la, lb), st.shed_level};
      if (key_to_job.count(key) == 0) {
        key_to_job[key] = jobs.size();
        const int pair = c.pair;
        const int64_t n = std::min(la, lb);
        ReplayJob job;
        job.make_pair = [this, pair, n] {
          const PairData& d = data_[static_cast<size_t>(pair)];
          return tycos::SeriesPair(
              tycos::TimeSeries(std::vector<double>(d.x.begin(),
                                                    d.x.begin() + n)),
              tycos::TimeSeries(std::vector<double>(d.y.begin(),
                                                    d.y.begin() + n)));
        };
        job.params = tycos::jobs::DegradeParams(QueryParams(), st.shed_level);
        job.seed = c.seed;
        jobs.push_back(std::move(job));
        job_inputs.push_back({pair, n});
      }
    }
  }

  const CounterBlock before = Counters();
  *replay = RunReplay(jobs, opts_.nproc);
  *replay_counters = Delta(Counters(), before);

  int64_t eligible = 0;
  int64_t found = 0;
  bool corrupted = false;
  for (RoundResult& round : *rounds) {
    for (Completion& c : round.done) {
      const RequestStatus& st = c.status;
      const int64_t la = LengthAt(static_cast<int64_t>(st.epoch_a));
      const int64_t lb = LengthAt(static_cast<int64_t>(st.epoch_b));
      if (st.state != RequestState::kDone || la <= 0 || lb <= 0) continue;
      const size_t j =
          key_to_job[Key{c.pair, c.seed, std::min(la, lb), st.shed_level}];
      tycos::WindowSet answer = st.outcome.windows;
      if (opts_.corrupt && !corrupted) {
        CorruptForSelfTest(&answer);
        corrupted = true;
      }
      gate.Check(replay->outputs[j].ok &&
                     SameWindows(answer, replay->outputs[j].windows),
                 std::string("serve: a ") +
                     (st.from_cache ? "cached" : "computed") +
                     " answer differs from a cold run on its epoch data");
      const int64_t n = job_inputs[j].second;
      for (const tycos::Window& truth : data_[c.pair].planted) {
        if (truth.y_end() >= n) continue;  // not yet ingested
        ++eligible;
        if (Detects(replay->outputs[j].windows.windows(), truth,
                    kDelayTolerance)) {
          ++found;
        }
      }
    }
  }
  recall_ = Ratio(static_cast<double>(found), static_cast<double>(eligible));

  for (const RoundResult& round : *rounds) {
    report->attempted += round.submits +
                         static_cast<int64_t>(round.append_s.size());
    report->failed += round.refused + round.append_errors;
    for (const Completion& c : round.done) {
      if (c.status.state != RequestState::kDone || c.status.outcome.partial) {
        ++report->failed;
      }
    }
    gate.Check(static_cast<int64_t>(round.done.size()) + round.refused ==
                   round.submits,
               "serve: a submitted request was never observed finishing");
  }
}

Report Serve::Run() {
  Report report;
  report.engine_threads = std::max(1, opts_.nproc - 1);
  report.loadgen_threads = 1;
  const double span = opts_.seconds / kRounds;
  schedule_ = Schedule(opts_.seed, span, requests_per_s_);
  for (int b = 0; b < kBurstsPerRound; ++b) {
    bursts_.push_back(Burst(opts_.seed, b));
  }
  std::vector<int64_t> appends(kPairs, 0);
  for (const Event& e : schedule_) {
    if (e.append) ++appends[static_cast<size_t>(e.pair)];
  }
  const int64_t most = *std::max_element(appends.begin(), appends.end());
  max_epoch_ = 2 + most;
  TheGate().Check(kInitialLength + most * kChunk <= kFullLength,
                  "serve: the schedule appends past the generated data");
  if (!TheGate().ok()) return report;

  std::vector<double> setup_s;
  std::vector<RoundResult> rounds;
  for (int r = 0; r < std::max(kRounds, kSetups); ++r) {
    double s = 0.0;
    std::unique_ptr<Server> server = Setup(&s);
    setup_s.push_back(s);
    if (server == nullptr) return report;
    // Only the first kRounds set-ups serve a round; the rest are timed
    // for setup_s alone.
    if (r < kRounds) {
      rounds.push_back(RunRound(server.get(), opts_.trace && r == 1));
    }
    server->Shutdown();
  }
  // Exact-count check: the counters that do not depend on completion
  // timing must repeat across rounds. (Which repeats hit the cache, and
  // so the engine's own counters, depend on whether the first copy
  // finished first.)
  const std::vector<std::string> stable = {
      "service.admitted", "service.refused",  "service.degraded",
      "service.completed", "service.partial", "service.failed",
      "service.cancelled", "service.appends"};
  for (size_t r = 1; r < rounds.size(); ++r) {
    const std::string diff = FirstDifference(
        Only(rounds[0].counters, stable), Only(rounds[r].counters, stable));
    TheGate().Check(diff.empty(), "serve: counter block differs between "
                                  "rounds: " + diff);
  }

  Replay replay;
  CounterBlock replay_counters;
  Verify(&rounds, &report, &replay, &replay_counters);

  // Latencies of the open-loop schedule; the bursts give wall_s,
  // pairs_per_s and goodput_rps.
  std::vector<double> latencies;
  std::vector<double> hit_latencies;
  std::vector<double> miss_latencies;
  std::vector<double> makespans;
  double makespan_total = 0.0;
  int64_t burst_within = 0;
  std::vector<double> cpus;
  for (const RoundResult& round : rounds) {
    for (const Completion& c : round.done) {
      if (c.burst) continue;
      latencies.push_back(c.latency_s);
      (c.status.from_cache ? hit_latencies : miss_latencies)
          .push_back(c.latency_s);
    }
    for (double s : round.burst_makespan_s) {
      makespans.push_back(s);
      makespan_total += s;
    }
    burst_within += round.burst_within;
    cpus.push_back(round.cpu_s);
  }

  Metrics& m = report.metrics;
  if (!opts_.trace) {
    m["wall_s"] = Median(makespans);
    m["pairs_per_s"] =
        Ratio(static_cast<double>(kBurst) *
                  static_cast<double>(makespans.size()),
              makespan_total);
    m["cpu_s"] = Median(cpus);
    m["setup_s"] = Median(setup_s);
    m["planted_recall"] = recall_;
    m["latency_p50_ms"] = Quantile(latencies, 0.5) * 1e3;
    m["latency_p95_ms"] = Quantile(latencies, 0.95) * 1e3;
    // Requests answered within the limit per second of the limit, over
    // the bursts: the server's goodput while it is overloaded.
    m["goodput_rps"] = Ratio(static_cast<double>(burst_within),
                             kLatencyLimitS *
                                 static_cast<double>(makespans.size()));
    return report;
  }

  const RoundResult& traced = rounds.back();
  AddSearchLayerMetrics(replay, EngineCounters(replay_counters), &m);
  const int64_t hits = Get(traced.open_loop_counters, "service.cache.hits");
  const int64_t misses =
      Get(traced.open_loop_counters, "service.cache.misses");
  m["service.submit_us_p50"] = Quantile(traced.submit_s, 0.5) * 1e6;
  m["service.submit_us_p99"] = Quantile(traced.submit_s, 0.99) * 1e6;
  m["service.append_us_p50"] = Quantile(traced.append_s, 0.5) * 1e6;
  m["service.append_us_p99"] = Quantile(traced.append_s, 0.99) * 1e6;
  m["service.cache_hit_ratio"] =
      Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  m["service.hit_latency_p50_ms"] = Quantile(hit_latencies, 0.5) * 1e3;
  m["service.miss_latency_p50_ms"] = Quantile(miss_latencies, 0.5) * 1e3;
  m["service.miss_latency_p95_ms"] = Quantile(miss_latencies, 0.95) * 1e3;
  m["service.queue_depth_p95"] = Quantile(traced.queue_depth, 0.95);
  m["service.worker_utilisation"] =
      Ratio(traced.cpu_s, report.engine_threads * traced.wall_s);
  for (const char* name :
       {"service.refused", "service.degraded", "service.partial"}) {
    m[name] = static_cast<double>(Get(traced.counters, name));
  }
  std::vector<double> lags;
  for (const RoundResult& round : rounds) {
    lags.insert(lags.end(), round.lag_s.begin(), round.lag_s.end());
  }
  m["loadgen.lag_p95_ms"] = Quantile(lags, 0.95) * 1e3;
  m["trace.overhead_share"] = Ratio(traced.wall_s, rounds.front().wall_s) - 1.0;
  double calls_s = 0.0;
  for (double s : traced.submit_s) calls_s += s;
  for (double s : traced.append_s) calls_s += s;
  const double busy = ReplayBusySeconds(replay) + calls_s;
  m["trace.unaccounted_share"] =
      Ratio(busy - ReplayAccountedSeconds(replay) - calls_s, busy);
  return report;
}

}  // namespace

Report RunServe(const Options& opts) { return Serve(opts).Run(); }

}  // namespace perfbench
