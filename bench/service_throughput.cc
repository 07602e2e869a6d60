// Service-layer throughput driver: four tenants hammer a Server through
// its submit / ingest / wait API and the run checks, not just records, the
// service's contracts:
//
//   - repeated identical queries hit the result cache (hit rate > 0),
//     and appends invalidate it (misses after every epoch bump);
//   - answers are bit-identical with the cache on and off;
//   - an overloaded run refuses work at shed level 3 (service.refused > 0)
//     while every admitted request still completes — possibly degraded or
//     partial, never dropped.
//
// Violations exit non-zero, so CI's smoke run is a real gate. Results land
// in a machine-readable BENCH_service.json plus an obs-registry metrics
// sidecar.
//
// Usage: service_throughput [OUT.json] [--smoke]
//   --smoke shrinks the workload so CI can exercise the full code path in
//   seconds; the numbers are not comparable to a committed
//   BENCH_service.json.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/relations.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/server.h"

namespace {

using namespace tycos;
using service::RequestState;
using service::RequestStatus;
using service::SearchRequest;
using service::Server;
using service::ServiceOptions;
using tycos::bench::TimeIt;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
  }
}

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 160;
  p.td_max = 8;
  return p;
}

int64_t Counter(const char* name) {
  return obs::Snapshot().CounterValue(name);
}

// Blocks until the request is terminal. Server::Wait sleeps on the
// server's condition variable, so the client threads burn no CPU inside
// the measurement (a yield-spinning Poll loop shows up as sys time).
RequestStatus WaitUntilDone(Server& server, int64_t id) {
  const Result<RequestStatus> st = server.Wait(id);
  Require(st.ok(), "Wait on an admitted id");
  return st.value();
}

bool SameWindows(const WindowSet& a, const WindowSet& b) {
  if (a.windows().size() != b.windows().size()) return false;
  for (size_t i = 0; i < a.windows().size(); ++i) {
    const Window& u = a.windows()[i];
    const Window& v = b.windows()[i];
    if (u.start != v.start || u.end != v.end || u.delay != v.delay ||
        u.mi != v.mi) {
      return false;
    }
  }
  return true;
}

datagen::SyntheticDataset TenantData(int tenant, int64_t length) {
  return datagen::ComposeDataset(
      {datagen::SegmentSpec{datagen::RelationType::kLinear, length, 4}},
      /*gap=*/64, /*seed=*/100 + static_cast<uint64_t>(tenant));
}

SearchRequest QueryFor(int tenant) {
  SearchRequest req;
  req.tenant = "tenant-" + std::to_string(tenant);
  req.channel_a = "ch" + std::to_string(tenant) + ".a";
  req.channel_b = "ch" + std::to_string(tenant) + ".b";
  req.params = Params();
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  constexpr int kTenants = 4;
  const int rounds = smoke ? 4 : 8;
  const int64_t seg_len = smoke ? 160 : 600;

  std::vector<datagen::SyntheticDataset> data;
  for (int t = 0; t < kTenants; ++t) data.push_back(TenantData(t, seg_len));

  // ---- Phase 1: concurrent submit / ingest / wait + cache behavior. ----
  // Each tenant owns a channel pair, appends a fresh chunk every second
  // round (bumping the epoch), and repeats an identical query in between —
  // so every data version is searched once cold and once from the cache.
  const int64_t hits0 = Counter("service.cache.hits");
  const int64_t misses0 = Counter("service.cache.misses");
  const int64_t admitted0 = Counter("service.admitted");

  ServiceOptions opts;
  opts.num_workers = 2;
  auto server_or = Server::Create(opts);
  Require(server_or.ok(), "Server::Create");
  Server& server = *server_or.value();

  // Hold back a tail of y-samples per tenant to append during the run.
  const int64_t tail = 48;
  for (int t = 0; t < kTenants; ++t) {
    const auto& xs = data[t].pair.x().values();
    const auto& ys = data[t].pair.y().values();
    Require(server.Append(QueryFor(t).channel_a, xs).ok(), "ingest x");
    Require(server
                .Append(QueryFor(t).channel_b,
                        std::vector<double>(ys.begin(), ys.end() - tail))
                .ok(),
            "ingest y head");
  }

  std::atomic<int64_t> completed{0};
  const double wall_s = TimeIt([&] {
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] {
        const auto& ys = data[t].pair.y().values();
        const int64_t chunk = tail / (rounds / 2);
        int64_t appended = 0;
        for (int r = 0; r < rounds; ++r) {
          if (r > 0 && r % 2 == 0 && appended + chunk <= tail) {
            const auto base = ys.end() - tail + appended;
            Require(server
                        .Append(QueryFor(t).channel_b,
                                std::vector<double>(base, base + chunk))
                        .ok(),
                    "mid-run append");
            appended += chunk;
          }
          const auto id = server.Submit(QueryFor(t));
          Require(id.ok(), "Submit under no load");
          const RequestStatus st = WaitUntilDone(server, id.value());
          Require(st.state == RequestState::kDone, "request completes");
          Require(!st.outcome.partial, "unloaded request is not partial");
          completed.fetch_add(1);
        }
      });
    }
    for (std::thread& th : tenants) th.join();
  });

  const int64_t hits = Counter("service.cache.hits") - hits0;
  const int64_t misses = Counter("service.cache.misses") - misses0;
  const int64_t admitted = Counter("service.admitted") - admitted0;
  Require(completed.load() == kTenants * rounds, "all rounds completed");
  Require(hits > 0, "repeated identical queries hit the cache");
  Require(misses > 0, "epoch bumps force recomputation");
  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  server.Shutdown();

  // ---- Phase 2: cache on/off bit-identity. ----
  // The same queries against a cache-disabled server must reproduce the
  // cached answers bit for bit.
  bool cache_identical = true;
  {
    ServiceOptions cold;
    cold.num_workers = 2;
    cold.cache_capacity = 0;
    auto cold_or = Server::Create(cold);
    Require(cold_or.ok(), "Server::Create (cache off)");
    Server& cold_server = *cold_or.value();
    for (int t = 0; t < kTenants; ++t) {
      Require(cold_server
                  .Append(QueryFor(t).channel_a, data[t].pair.x().values())
                  .ok(),
              "cold ingest x");
      Require(cold_server
                  .Append(QueryFor(t).channel_b, data[t].pair.y().values())
                  .ok(),
              "cold ingest y");
      Require(
          server.Append(QueryFor(t).channel_a, std::vector<double>()).ok(),
          "warm server still ingests");
    }
    // Fresh warm server over the full data, queried twice (cold + hit).
    ServiceOptions warm;
    warm.num_workers = 2;
    auto warm_or = Server::Create(warm);
    Require(warm_or.ok(), "Server::Create (cache on)");
    Server& warm_server = *warm_or.value();
    for (int t = 0; t < kTenants; ++t) {
      Require(warm_server
                  .Append(QueryFor(t).channel_a, data[t].pair.x().values())
                  .ok(),
              "warm ingest x");
      Require(warm_server
                  .Append(QueryFor(t).channel_b, data[t].pair.y().values())
                  .ok(),
              "warm ingest y");
    }
    for (int t = 0; t < kTenants; ++t) {
      const auto first = warm_server.Submit(QueryFor(t));
      Require(first.ok(), "warm submit");
      const RequestStatus cold_st = WaitUntilDone(
          cold_server, cold_server.Submit(QueryFor(t)).value());
      const RequestStatus warm_cold = WaitUntilDone(warm_server,
                                                    first.value());
      const RequestStatus warm_hit = WaitUntilDone(
          warm_server, warm_server.Submit(QueryFor(t)).value());
      Require(!cold_st.from_cache, "cache-off server never hits");
      Require(warm_hit.from_cache, "repeat on warm server hits");
      cache_identical = cache_identical &&
                        SameWindows(cold_st.outcome.windows,
                                    warm_cold.outcome.windows) &&
                        SameWindows(cold_st.outcome.windows,
                                    warm_hit.outcome.windows);
    }
    Require(cache_identical, "cache on/off results bit-identical");
  }

  // ---- Phase 3: overload. ----
  // A one-worker server with a tight queue ladder: the in-flight overlay
  // pushes admission to level 3 under a four-tenant flood. Refusals must
  // happen AND every admitted request must still complete.
  const int64_t refused0 = Counter("service.refused");
  const int64_t degraded0 = Counter("service.degraded");
  const int64_t partial0 = Counter("service.partial");
  int64_t flood_submitted = 0;
  int64_t flood_admitted = 0;
  bool flood_all_completed = true;
  {
    ServiceOptions tight;
    tight.num_workers = 1;
    tight.shed.queue_soft = 1;
    tight.shed.queue_hard = 3;
    auto tight_or = Server::Create(tight);
    Require(tight_or.ok(), "Server::Create (overload)");
    Server& tight_server = *tight_or.value();
    for (int t = 0; t < kTenants; ++t) {
      Require(tight_server
                  .Append(QueryFor(t).channel_a, data[t].pair.x().values())
                  .ok(),
              "flood ingest x");
      Require(tight_server
                  .Append(QueryFor(t).channel_b, data[t].pair.y().values())
                  .ok(),
              "flood ingest y");
    }
    std::mutex flood_mu;
    std::vector<int64_t> flood_ids;
    std::vector<std::thread> flood;
    const int per_tenant = rounds;
    for (int t = 0; t < kTenants; ++t) {
      flood.emplace_back([&, t] {
        for (int r = 0; r < per_tenant; ++r) {
          SearchRequest req = QueryFor(t);
          // Distinct seeds defeat the cache: every admitted request costs
          // a real search, keeping the queue pressed.
          req.seed = static_cast<uint64_t>(1000 + t * per_tenant + r);
          const auto id = tight_server.Submit(req);
          std::lock_guard<std::mutex> lock(flood_mu);
          ++flood_submitted;
          if (id.ok()) flood_ids.push_back(id.value());
        }
      });
    }
    for (std::thread& th : flood) th.join();
    flood_admitted = static_cast<int64_t>(flood_ids.size());
    for (const int64_t id : flood_ids) {
      const RequestStatus st = WaitUntilDone(tight_server, id);
      flood_all_completed =
          flood_all_completed && st.state == RequestState::kDone;
    }
  }
  const int64_t refused = Counter("service.refused") - refused0;
  const int64_t degraded = Counter("service.degraded") - degraded0;
  const int64_t partial = Counter("service.partial") - partial0;
  Require(refused > 0, "overload records service.refused");
  Require(flood_admitted > 0, "overload still admits some work");
  Require(flood_all_completed, "admitted requests complete under overload");
  Require(flood_submitted == flood_admitted + refused,
          "every submit is admitted or refused");

  std::printf("service throughput: %d tenants x %d rounds in %.2fs "
              "(%.1f req/s), cache hit rate %.2f\n",
              kTenants, rounds, wall_s,
              static_cast<double>(completed.load()) / wall_s, hit_rate);
  std::printf("overload: %lld submitted, %lld admitted (%lld degraded, "
              "%lld partial), %lld refused; all admitted completed\n",
              static_cast<long long>(flood_submitted),
              static_cast<long long>(flood_admitted),
              static_cast<long long>(degraded),
              static_cast<long long>(partial),
              static_cast<long long>(refused));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteHostJson(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"throughput\": {\n");
  std::fprintf(f, "    \"tenants\": %d,\n", kTenants);
  std::fprintf(f, "    \"rounds_per_tenant\": %d,\n", rounds);
  std::fprintf(f, "    \"requests\": %lld,\n",
               static_cast<long long>(completed.load()));
  std::fprintf(f, "    \"admitted\": %lld,\n",
               static_cast<long long>(admitted));
  std::fprintf(f, "    \"wall_s\": %.2f,\n", wall_s);
  std::fprintf(f, "    \"requests_per_sec\": %.2f,\n",
               static_cast<double>(completed.load()) / wall_s);
  std::fprintf(f, "    \"cache_hits\": %lld,\n",
               static_cast<long long>(hits));
  std::fprintf(f, "    \"cache_misses\": %lld,\n",
               static_cast<long long>(misses));
  std::fprintf(f, "    \"cache_hit_rate\": %.4f\n", hit_rate);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cache_on_off_identical\": %s,\n",
               cache_identical ? "true" : "false");
  std::fprintf(f, "  \"overload\": {\n");
  std::fprintf(f, "    \"submitted\": %lld,\n",
               static_cast<long long>(flood_submitted));
  std::fprintf(f, "    \"admitted\": %lld,\n",
               static_cast<long long>(flood_admitted));
  std::fprintf(f, "    \"refused\": %lld,\n",
               static_cast<long long>(refused));
  std::fprintf(f, "    \"degraded\": %lld,\n",
               static_cast<long long>(degraded));
  std::fprintf(f, "    \"partial\": %lld,\n",
               static_cast<long long>(partial));
  std::fprintf(f, "    \"all_admitted_completed\": %s\n",
               flood_all_completed ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Metrics sidecar: the service.* counters (plus the engine's own) as
  // accumulated over every phase above.
  std::string metrics_path = out_path;
  const std::string suffix = ".json";
  if (metrics_path.size() >= suffix.size() &&
      metrics_path.compare(metrics_path.size() - suffix.size(),
                           suffix.size(), suffix) == 0) {
    metrics_path.resize(metrics_path.size() - suffix.size());
  }
  metrics_path += ".metrics.json";
  const Status metrics_ok = obs::WriteJson(metrics_path, obs::Snapshot());
  if (metrics_ok.ok()) {
    std::printf("wrote %s\n", metrics_path.c_str());
  } else {
    std::fprintf(stderr, "metrics sidecar failed: %s\n",
                 metrics_ok.message().c_str());
  }
  return 0;
}
