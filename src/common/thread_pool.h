// ThreadPool: a fixed-size task-queue thread pool plus a RunContext-aware
// ParallelFor helper — the execution substrate of the parallel search
// engine (pairwise fan-out, multi-restart climbs, bench drivers).
//
// Determinism contract: ParallelFor claims indices in order from a shared
// counter, so the set of executed indices is always a prefix [0, claimed).
// Callers that store per-index results into pre-sized slots and merge them
// in index order after the loop get results that are bit-identical at any
// thread count. Deadline / cancellation stops propagate to every worker:
// once the RunContext fires (or a body reports a stop), no new indices are
// claimed; indices already claimed always run to completion, so a slot is
// never left torn.

#ifndef TYCOS_COMMON_THREAD_POOL_H_
#define TYCOS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/run_context.h"

namespace tycos {

class ThreadPool {
 public:
  // Spawns `num_workers` background threads. 0 is valid: the pool then has
  // no threads and ParallelFor runs entirely inline on the calling thread —
  // the exact sequential reference path.
  //
  // Worker placement (Linux): worker i starts on the i-th CPU of the
  // creator's affinity mask after the creator's own CPU, and before each
  // task a worker that finds a lower-numbered worker of its pool on its CPU
  // moves to a CPU no worker of the pool is on. Moves keep the affinity
  // mask as it was, so the kernel stays free to place threads. Where the
  // kernel does not balance load across CPUs (a cpuset with
  // sched_load_balance off), a new thread starts on its creator's CPU and
  // a woken one on its last CPU, and without this a pool's workers could
  // share one CPU for as long as they stay busy.
  explicit ThreadPool(int num_workers);

  // Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task for the workers; CHECKs when the pool has none (a task
  // submitted to an empty pool would never run).
  void Submit(std::function<void()> task) TYCOS_EXCLUDES(mu_);

  // Maps a user-facing thread-count request to an executor count:
  // >= 1 is taken as given, <= 0 means one executor per hardware thread.
  static int ResolveThreadCount(int requested);

  // Executor width for an engine pool nested INSIDE another pool's worker
  // (per-pair multi-restart climbs under a pair-level fan-out, say). The
  // flattened (pair × climb) scheduler in PairwiseSearch avoids nesting
  // entirely; any remaining nested site must size its inner pools with
  // this: `requested` resolves as ResolveThreadCount, then the product
  // outer_executors × inner width is capped at the hardware thread count,
  // so enabling nested parallelism can never oversubscribe the host (at
  // most max(1, hw / outer_executors) inner executors). Results are
  // unaffected — engines are bit-identical at any thread count — only
  // wall-clock. See DESIGN.md "Threading model".
  static int ResolveNestedThreadCount(int requested, int outer_executors);

  // The per-task placement check above, for a task that keeps its worker
  // for many units of work (a scheduler's drain loop): call it between
  // units. A no-op on a thread that is not a pool worker.
  static void SpreadWorker();

  struct ForStatus {
    int64_t claimed = 0;  // indices executed — always the prefix [0, claimed)
    std::optional<StopReason> stop;  // first stop observed, if any
  };

  // Runs body(i) for i in [0, n), fanning across the workers with the
  // calling thread participating (so a pool with W workers gives W + 1
  // executors). Before claiming each index, every executor polls `ctx`;
  // a deadline / cancellation there — or a StopReason returned by a body —
  // halts all further claims. The first stop observed is reported back.
  // Bodies for distinct indices run concurrently and must not share mutable
  // state; all body effects are visible to the caller on return.
  //
  // Must not be called from inside a task of the same pool.
  ForStatus ParallelFor(
      int64_t n, const RunContext& ctx,
      const std::function<std::optional<StopReason>(int64_t)>& body);

 private:
  void WorkerLoop() TYCOS_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ TYCOS_GUARDED_BY(mu_);
  bool shutdown_ TYCOS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
  // Allowed CPUs of the creator, ascending (empty: no placement), and the
  // CPU each worker was last seen on (its start CPU before its first task).
  std::vector<int> cpus_;
  std::vector<std::atomic<int>> worker_cpu_;
};

}  // namespace tycos

#endif  // TYCOS_COMMON_THREAD_POOL_H_
