// Micro-benchmark: FFT substrate (radix-2 vs Bluestein sizes) and the
// sliding-dot-product kernel that powers MASS / MatrixProfile, plus the
// BM_KernelSlidingDots rows: the direct sliding dots of the prefilter's
// thin-band stage 2 (simd::SlidingDots against its scalar twin, source of
// BENCH_kernels.json).

#include <benchmark/benchmark.h>

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

// Args: window length n, band (alignments). Stage 2 of the discover
// workload runs n = 128 at band 17 (td_max 8); 63 is the widest band
// before the MASS crossover.
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

}  // namespace

BENCHMARK_MAIN();
