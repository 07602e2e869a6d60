// Micro-benchmark: FFT substrate (radix-2 vs Bluestein sizes) and the
// sliding-dot-product kernel that powers MASS / MatrixProfile, plus the
// BM_KernelSlidingDots rows: the sliding dots of the prefilter
// (simd::SlidingDots against its scalar twin, source of
// BENCH_kernels.json), and the BM_PrefilterWindow rows: one prefilter grid
// window scanned directly against the same window through MASS.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "fft/fft.h"
#include "fft/sliding_dot.h"

namespace {

using namespace tycos;

void BM_FftPowerOfTwo(benchmark::State& state) {
  Rng rng(1);
  std::vector<Complex> data(static_cast<size_t>(state.range(0)));
  for (auto& c : data) c = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    std::vector<Complex> copy = data;
    Fft(&copy, false);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_FftPowerOfTwo)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_FftBluestein(benchmark::State& state) {
  Rng rng(2);
  std::vector<Complex> data(static_cast<size_t>(state.range(0)));
  for (auto& c : data) c = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(FftAnySize(data, false));
  }
}
BENCHMARK(BM_FftBluestein)
    ->Arg(1000)
    ->Arg(12289)
    ->Unit(benchmark::kMicrosecond);

void BM_MassDistanceProfile(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> series(static_cast<size_t>(state.range(0)));
  for (auto& v : series) v = rng.Normal();
  std::vector<double> query(series.begin(), series.begin() + 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MassDistanceProfile(query, series));
  }
}
BENCHMARK(BM_MassDistanceProfile)
    ->Arg(4096)
    ->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

// Args: window length n, band (alignments). The prefilter on the discover
// workload runs n = 128 at band 17 (td_max 8).
template <void (*Fn)(const double*, size_t, const double*, size_t, double*)>
void BM_KernelSlidingDots(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t band = static_cast<size_t>(state.range(1));
  Rng rng(4);
  std::vector<double> q(n);
  std::vector<double> t(band + n);  // read from t + 1: unaligned
  for (auto& v : q) v = rng.Normal();
  for (auto& v : t) v = rng.Normal();
  std::vector<double> out(band);
  for (auto _ : state) {
    Fn(q.data(), n, t.data() + 1, band, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelSlidingDots<&simd::SlidingDots>)
    ->Name("BM_KernelSlidingDots/simd")
    ->Args({128, 17})
    ->Args({128, 63})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelSlidingDots<&simd::SlidingDotsScalar>)
    ->Name("BM_KernelSlidingDots/scalar")
    ->Args({128, 17})
    ->Args({128, 63})
    ->Unit(benchmark::kMicrosecond);

// One prefilter grid window, two ways. Args: window length n, band
// (alignments). /direct is what the prefilter runs: simd::SlidingDots plus
// the Pearson fold over window moments it reads from a table (built
// before the loop, as the prefilter builds it once per channel). /mass is
// the FFT distance profile of the same query and band slice, which the
// prefilter used for bands of 64 alignments and wider (EXPERIMENTS.md
// "All-pairs prefilter").
void BM_PrefilterWindowDirect(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t band = static_cast<size_t>(state.range(1));
  Rng rng(5);
  std::vector<double> q(n);
  std::vector<double> t(band + n - 1);
  for (auto& v : q) v = rng.Normal();
  for (auto& v : t) v = rng.Normal();
  const auto moments = [n](const double* w) {
    double sum = 0.0;
    double sq = 0.0;
    for (size_t j = 0; j < n; ++j) {
      sum += w[j];
      sq += w[j] * w[j];
    }
    const double dn = static_cast<double>(n);
    const double mean = sum / dn;
    return std::make_pair(mean,
                          std::sqrt(std::max(0.0, sq / dn - mean * mean)));
  };
  const std::pair<double, double> qm = moments(q.data());
  std::vector<std::pair<double, double>> wm(band);
  for (size_t i = 0; i < band; ++i) wm[i] = moments(t.data() + i);
  const double dm = static_cast<double>(n);
  std::vector<double> dots(band);
  for (auto _ : state) {
    simd::SlidingDots(q.data(), n, t.data(), band, dots.data());
    double best = 0.0;
    for (size_t i = 0; i < band; ++i) {
      const double r = (dots[i] - dm * qm.first * wm[i].first) /
                       (dm * qm.second * wm[i].second);
      best = std::max(best, std::fabs(r));
    }
    benchmark::DoNotOptimize(best);
  }
}

void BM_PrefilterWindowMass(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t band = static_cast<size_t>(state.range(1));
  Rng rng(5);
  std::vector<double> q(n);
  std::vector<double> t(band + n - 1);
  for (auto& v : q) v = rng.Normal();
  for (auto& v : t) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MassDistanceProfile(q, t));
  }
}

void PrefilterWindowArgs(benchmark::internal::Benchmark* b) {
  b->Args({128, 17})
      ->Args({128, 81})
      ->Args({128, 257})
      ->Args({128, 4097})
      ->Args({1024, 81})
      ->Args({1024, 4097})
      ->Args({4096, 4097})
      ->Unit(benchmark::kMicrosecond);
}
BENCHMARK(BM_PrefilterWindowDirect)
    ->Name("BM_PrefilterWindow/direct")
    ->Apply(PrefilterWindowArgs);
BENCHMARK(BM_PrefilterWindowMass)
    ->Name("BM_PrefilterWindow/mass")
    ->Apply(PrefilterWindowArgs);

}  // namespace

BENCHMARK_MAIN();
