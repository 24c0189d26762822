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

bool ShardedRouter::push_to(const std::string& name, net::Packet&& packet) {
  return shards_[shard_for(packet)]->push_to(name, std::move(packet));
}

bool ShardedRouter::push_batch_to(const std::string& name, PacketBatch&& batch) {
  if (shards_.size() == 1) return shards_[0]->push_batch_to(name, std::move(batch));
  for (const auto& shard : shards_)
    if (!shard->find(name)) return false;

  // Dispatch is the only serial work: hash the flow, append the packet
  // to its shard's sub-burst. Everything after runs shard-local.
  std::size_t busy = 0, last_busy = 0;
  for (net::Packet& packet : batch) {
    std::size_t shard = shard_for(packet);
    if (partition_scratch_[shard].empty()) {
      ++busy;
      last_busy = shard;
    }
    partition_scratch_[shard].push_back(std::move(packet));
  }
  batch.clear();

  auto run_shard = [&](std::size_t i) {
    if (partition_scratch_[i].empty()) return;
    shards_[i]->push_batch_to(name, std::move(partition_scratch_[i]));
    partition_scratch_[i].clear();
  };
  if (busy == 1)
    run_shard(last_busy);
  else if (busy > 1)
    pool_->run(shards_.size(), run_shard);
  return true;
}

Status ShardedRouter::hot_swap(const std::string& config_text) {
  auto built = build_shards(config_text, shards_.size());
  if (!built.ok()) return err(built.error());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (Element* fresh : (*built)[i]->elements()) {
      Element* old = shards_[i]->find(fresh->name());
      if (old && old->class_name() == fresh->class_name()) fresh->take_state(*old);
    }
  }
  config_text_ = config_text;
  adopt(std::move(*built));
  return {};
}

Status ShardedRouter::reshard(std::size_t new_shards) {
  if (new_shards == 0) return err("sharded router: shard count must be positive");
  if (new_shards == shards_.size()) return {};
  auto built = build_shards(config_text_, new_shards);
  if (!built.ok()) return err(built.error());

  // Queued packets first: drain every old Queue and re-push each packet
  // into the same-named Queue of the shard its flow now hashes to, so
  // nothing is lost and flows keep living in exactly one shard.
  for (const auto& old_shard : shards_) {
    for (Element* old_element : old_shard->elements()) {
      auto* old_queue = dynamic_cast<Queue*>(old_element);
      if (!old_queue) continue;
      while (auto packet = old_queue->pop()) {
        std::size_t target = shard_of(net::FlowKey::of(*packet), new_shards);
        if (auto* fresh = (*built)[target]->find_as<Queue>(old_element->name()))
          fresh->push(0, std::move(*packet));
      }
    }
  }

  // Flow-keyed state next: a flow's packets arrive at
  // shard_of(key, new_shards) after the switch, which is generally NOT
  // o % new_shards — folding a stream context to the wrong shard would
  // orphan it (its flow never touches that lane again) while the right
  // lane starts the flow from scratch, losing mid-stream scan state.
  // migrate_flows re-homes each flow's state to the same-named element
  // on the shard its key hashes to under the new count.
  for (const auto& old_shard : shards_) {
    for (Element* old_element : old_shard->elements()) {
      old_element->migrate_flows([&](const net::FlowKey& key) -> Element* {
        std::size_t target = shard_of(key, new_shards);
        Element* fresh = (*built)[target]->find(old_element->name());
        if (!fresh || fresh->class_name() != old_element->class_name())
          return nullptr;
        return fresh;
      });
    }
  }

  // Everything else merges additively: old shard o folds into new shard
  // o % new_shards, so each old shard contributes exactly once and
  // aggregate totals (Counter packets/bytes, IDPS matches, drop tallies)
  // are preserved across the transition.
  for (std::size_t o = 0; o < shards_.size(); ++o) {
    Router& target = *(*built)[o % new_shards];
    for (Element* old_element : shards_[o]->elements()) {
      Element* fresh = target.find(old_element->name());
      if (fresh && fresh->class_name() == old_element->class_name())
        fresh->absorb_state(*old_element);
    }
  }
  adopt(std::move(*built));
  ++reshard_count_;
  return {};
}

}  // namespace endbox::click
