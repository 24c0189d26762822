#include "click/sharded_router.hpp"

#include "click/standard_elements.hpp"

namespace endbox::click {

// ---- ShardWorkerPool -------------------------------------------------------

ShardWorkerPool::ShardWorkerPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ShardWorkerPool::~ShardWorkerPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

// Runs one claimed job outside the lock, capturing the first exception
// (rethrown to run()'s caller once the burst drains) so a throwing
// element degrades to an error instead of std::terminate on a worker.
void ShardWorkerPool::execute_job(std::unique_lock<std::mutex>& lock,
                                  std::size_t job) {
  const auto* fn = fn_;
  lock.unlock();
  std::exception_ptr error;
  try {
    (*fn)(job);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !error_) error_ = error;
  if (--in_flight_ == 0) done_cv_.notify_all();
}

void ShardWorkerPool::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || (fn_ && next_job_ < jobs_); });
    if (stop_) return;
    while (fn_ && next_job_ < jobs_) execute_job(lock, next_job_++);
  }
}

void ShardWorkerPool::run(std::size_t jobs,
                          const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) return;
  if (threads_.empty() || jobs == 1) {
    for (std::size_t i = 0; i < jobs; ++i) fn(i);
    return;
  }
  std::unique_lock lock(mutex_);
  fn_ = &fn;
  jobs_ = jobs;
  next_job_ = 0;
  in_flight_ = jobs;
  error_ = nullptr;
  work_cv_.notify_all();
  // The caller claims jobs too, so a burst never waits on a sleeping
  // worker it could have run itself.
  while (next_job_ < jobs_) execute_job(lock, next_job_++);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
  fn_ = nullptr;
  std::exception_ptr error = error_;
  error_ = nullptr;
  if (error) std::rethrow_exception(error);
}

// ---- ShardedRouter ---------------------------------------------------------

Result<std::unique_ptr<ShardedRouter>> ShardedRouter::create(
    const std::string& config_text, std::size_t shards, RouterFactory factory) {
  if (shards == 0) return err("sharded router: shard count must be positive");
  if (!factory) return err("sharded router: a router factory is required");
  auto router = std::unique_ptr<ShardedRouter>(new ShardedRouter());
  router->factory_ = std::move(factory);
  auto built = router->build_shards(config_text, shards);
  if (!built.ok()) return err(built.error());
  router->config_text_ = config_text;
  router->adopt(std::move(*built));
  return router;
}

Result<std::vector<std::unique_ptr<Router>>> ShardedRouter::build_shards(
    const std::string& config_text, std::size_t shards) {
  std::vector<std::unique_ptr<Router>> built;
  built.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto router = factory_(i, config_text);
    if (!router.ok())
      return err("shard " + std::to_string(i) + ": " + router.error());
    built.push_back(std::move(*router));
  }
  return built;
}

void ShardedRouter::adopt(std::vector<std::unique_ptr<Router>> shards) {
  shards_ = std::move(shards);
  partition_scratch_.resize(shards_.size());
  // One worker per shard; a reshard to fewer (but still >1) shards
  // keeps the existing pool and its warmed-up threads, so shrinking
  // never pays thread teardown/spawn on what is supposed to be a
  // lossless live transition (ShardWorkerPool::ensure's policy).
  ShardWorkerPool::ensure(pool_, shards_.size());
}

bool ShardedRouter::push_batch_to(const std::string& name, PacketBatch&& batch) {
  if (shards_.size() == 1) return shards_[0]->push_batch_to(name, std::move(batch));
  for (const auto& shard : shards_)
    if (!shard->find(name)) return false;

  // Dispatch is the only serial work: hash the flow, append the packet
  // to its shard's sub-burst. Everything after runs shard-local.
  for (net::Packet& packet : batch)
    partition_scratch_[shard_for(packet)].push_back(std::move(packet));
  batch.clear();

  ShardWorkerPool::run_busy(
      pool_.get(), shards_.size(),
      [&](std::size_t i) { return !partition_scratch_[i].empty(); },
      [&](std::size_t i) {
        shards_[i]->push_batch_to(name, std::move(partition_scratch_[i]));
        partition_scratch_[i].clear();
      });
  return true;
}

Status ShardedRouter::hot_swap(const std::string& config_text) {
  auto built = build_shards(config_text, shards_.size());
  if (!built.ok()) return err(built.error());
  transfer_state(*built);
  config_text_ = config_text;
  adopt(std::move(*built));
  return {};
}

Status ShardedRouter::reshard(std::size_t new_shards) {
  if (new_shards == 0) return err("sharded router: shard count must be positive");
  if (new_shards == shards_.size()) return {};
  auto built = build_shards(config_text_, new_shards);
  if (!built.ok()) return err(built.error());
  transfer_state(*built);
  adopt(std::move(*built));
  ++reshard_count_;
  return {};
}

void ShardedRouter::transfer_state(std::vector<std::unique_ptr<Router>>& built) {
  const std::size_t n = built.size();
  // An old element's successor on `shard`: same name, same class.
  auto successor = [&](std::size_t shard, const Element& old) -> Element* {
    Element* fresh = built[shard]->find(old.name());
    return fresh && fresh->class_name() == old.class_name() ? fresh : nullptr;
  };

  // 1. Queued packets: drain every old Queue and re-push each packet
  // into its successor on the shard the packet's flow hashes to, so
  // flows keep living in exactly one shard. Overflow counts as drops.
  for (const auto& old_shard : shards_) {
    for (Element* old_element : old_shard->elements()) {
      auto* old_queue = dynamic_cast<Queue*>(old_element);
      if (!old_queue) continue;
      while (auto packet = old_queue->pop())
        if (Element* fresh =
                successor(shard_of(net::FlowKey::of(*packet), n), *old_queue))
          fresh->push(0, std::move(*packet));
    }
  }

  // 2. Fold: old shard o merges into new shard o % n, so each old shard
  // contributes exactly once and every aggregate survives. The router
  // sums the counter block; absorb_state folds the rest (lane clocks,
  // bucket credit, stats structs).
  for (std::size_t o = 0; o < shards_.size(); ++o) {
    for (Element* old_element : shards_[o]->elements()) {
      Element* fresh = successor(o % n, *old_element);
      if (!fresh) continue;
      for (std::size_t i = 0; i < Element::kCounterSlots; ++i)
        fresh->counters_[i] += old_element->counters_[i];
      fresh->absorb_state(*old_element);
    }
  }

  // 3. Flows last: a flow's packets arrive at shard_of(key, n), which is
  // generally not o % n, so each flow's state moves there. Running
  // after the fold stamps migrated state with the folded lane clock.
  for (const auto& old_shard : shards_) {
    for (Element* old_element : old_shard->elements()) {
      old_element->migrate_flows([&](const net::FlowKey& key) {
        return successor(shard_of(key, n), *old_element);
      });
    }
  }
}

}  // namespace endbox::click
