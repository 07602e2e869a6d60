#include "service/scheduler.h"

#include <algorithm>
#include <utility>

namespace tycos {
namespace service {

Scheduler::Scheduler(int num_workers)
    : num_workers_(std::max(1, ThreadPool::ResolveThreadCount(num_workers))) {
  pool_ = std::make_unique<ThreadPool>(num_workers_);
  {
    MutexLock lock(&mu_);
    live_workers_ = num_workers_;
  }
  for (int i = 0; i < num_workers_; ++i) {
    pool_->Submit([this] { DrainLoop(); });
  }
}

Scheduler::~Scheduler() {
  Shutdown();
  pool_.reset();  // joins the (already exiting) workers
}

bool Scheduler::Submit(const std::string& tenant, int priority, Job job) {
  MutexLock lock(&mu_);
  if (shutdown_) return false;
  TenantQueue& q = tenants_[tenant];
  // Keep the deque sorted highest-priority first, FIFO within a priority:
  // insert before the first strictly lower-priority entry.
  const auto pos =
      std::find_if(q.jobs.begin(), q.jobs.end(),
                   [&](const Pending& p) { return p.priority < priority; });
  q.jobs.insert(pos, Pending{priority, next_seq_++, std::move(job)});
  ++depth_;
  cv_.NotifyOne();
  return true;
}

int64_t Scheduler::QueueDepth() const {
  MutexLock lock(&mu_);
  return depth_;
}

int64_t Scheduler::DispatchedCount(const std::string& tenant) const {
  MutexLock lock(&mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.dispatched;
}

void Scheduler::Shutdown() {
  MutexLock lock(&mu_);
  if (!shutdown_) {
    shutdown_ = true;
    for (auto& [name, q] : tenants_) q.jobs.clear();
    depth_ = 0;
    cv_.NotifyAll();
  }
  // Wait for every drain loop to observe the flag and exit, so callers may
  // tear down state the jobs reference as soon as Shutdown() returns.
  while (live_workers_ > 0) cv_.Wait(mu_);
}

Scheduler::Pending Scheduler::PopNextLocked() {
  std::map<std::string, TenantQueue>::iterator best = tenants_.end();
  for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
    if (it->second.jobs.empty()) continue;
    if (best == tenants_.end()) {
      best = it;
      continue;
    }
    const Pending& cand = it->second.jobs.front();
    const Pending& top = best->second.jobs.front();
    // Highest priority; then the tenant served least (fair share); then
    // the earliest submission.
    if (cand.priority != top.priority) {
      if (cand.priority > top.priority) best = it;
    } else if (it->second.dispatched != best->second.dispatched) {
      if (it->second.dispatched < best->second.dispatched) best = it;
    } else if (cand.seq < top.seq) {
      best = it;
    }
  }
  Pending next = std::move(best->second.jobs.front());
  best->second.jobs.pop_front();
  ++best->second.dispatched;
  --depth_;
  return next;
}

void Scheduler::DrainLoop() {
  for (;;) {
    Pending next;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && depth_ == 0) cv_.Wait(mu_);
      if (shutdown_) {
        --live_workers_;
        cv_.NotifyAll();  // Shutdown() waits on live_workers_ == 0
        return;
      }
      next = PopNextLocked();
    }
    ThreadPool::SpreadWorker();
    next.job();
  }
}

}  // namespace service
}  // namespace tycos
