#include "shard/sharded_runtime.hpp"

#include <algorithm>
#include <cstdlib>

namespace rtseed::shard {

std::vector<std::vector<common::CoreId>> carve_shards(
    const common::Topology& topology, int num_shards) {
  std::vector<std::vector<common::CoreId>> shards;
  const int cores = topology.num_cores();
  if (num_shards <= 0 || num_shards > cores) return shards;
  shards.assign(static_cast<usize>(num_shards), {});

  // Walk cores grouped by (NUMA node, LLC domain) and cut contiguously,
  // sizes differing by at most one (the first `cores % num_shards` shards
  // take the extra core).  With dividing shapes the cuts land exactly on
  // domain boundaries because the order groups domains contiguously.
  const auto order = sched::topology_processor_order(&topology, cores);
  const int base = cores / num_shards;
  const int extra = cores % num_shards;
  int next = 0;
  for (int s = 0; s < num_shards; ++s) {
    const int take = base + (s < extra ? 1 : 0);
    for (int k = 0; k < take; ++k) {
      shards[static_cast<usize>(s)].push_back(
          order[static_cast<usize>(next++)]);
    }
  }
  return shards;
}

ShardedRuntime::ShardedRuntime(ShardedRuntimeOptions options)
    : options_(std::move(options)) {}

ShardedRuntime::~ShardedRuntime() { stop(); }

common::Status ShardedRuntime::admit(core::TaskConfig config, u32 symbol) {
  if (started_) {
    return common::failed_precondition("cannot admit after start()");
  }
  plan_.reset();  // new task invalidates any previous analysis
  for (auto& group : groups_) {
    if (group.symbol == symbol) {
      group.configs.push_back(std::move(config));
      return common::Status::ok();
    }
  }
  groups_.push_back({symbol, {}});
  groups_.back().configs.push_back(std::move(config));
  return common::Status::ok();
}

common::Status ShardedRuntime::carve() {
  int shards = options_.num_shards;
  if (options_.from_env && shards <= 0) {
    if (const char* env = std::getenv("RTSEED_SHARDS")) {
      shards = std::atoi(env);
      if (shards <= 0) {
        return common::invalid_argument(
            std::string("RTSEED_SHARDS must be a positive integer, got \"") +
            env + "\"");
      }
    }
  }
  const auto& topology = options_.base.topology;
  if (shards <= 0) shards = std::max(1, topology.num_llc_domains());
  shards = std::min(shards, topology.num_cores());

  shard_cores_ = carve_shards(topology, shards);
  if (shard_cores_.empty()) {
    return common::internal_error("shard carving produced no shards");
  }
  shard_topologies_.clear();
  shard_topologies_.reserve(shard_cores_.size());
  for (const auto& cores : shard_cores_) {
    shard_topologies_.push_back(topology.subset(cores));
  }
  return common::Status::ok();
}

common::Expected<sched::ShardedPlan> ShardedRuntime::analyze() {
  if (plan_ != nullptr) return *plan_;
  if (auto st = carve(); !st) return st;

  std::vector<sched::SymbolTaskSet> sets;
  sets.reserve(groups_.size());
  for (const auto& group : groups_) {
    sched::SymbolTaskSet set;
    set.symbol = group.symbol;
    for (const auto& config : group.configs) set.tasks.add(config.params);
    sets.push_back(std::move(set));
  }

  std::vector<int> cores_per_shard;
  sched::ShardedOptions sharded;
  sharded.per_shard = options_.base.analysis;
  for (const auto& topo : shard_topologies_) {
    cores_per_shard.push_back(topo.num_cores());
    sharded.shard_topologies.push_back(&topo);
  }

  auto plan = sched::plan_sharded(sets, cores_per_shard, sharded);
  if (!plan.feasible) {
    return common::failed_precondition("sharded plan infeasible: " +
                                       plan.diagnostics);
  }
  plan_ = std::make_unique<sched::ShardedPlan>(std::move(plan));
  return *plan_;
}

common::Status ShardedRuntime::start() {
  if (started_) return common::failed_precondition("already started");
  auto plan = analyze();
  if (!plan.has_value()) return plan.status();

  auto transport =
      ShardTransport::create(num_shards(), options_.transport);
  if (!transport.has_value()) return transport.status();
  transport_ = std::move(*transport);

  // Shards with no symbol groups stay dormant: Runtime refuses to start
  // with zero tasks, so their slots are left null and skipped everywhere.
  std::vector<bool> populated(static_cast<usize>(num_shards()), false);
  for (const auto& group : plan_->groups) {
    if (group.shard >= 0 && !group.local_task_ids.empty()) {
      populated[static_cast<usize>(group.shard)] = true;
    }
  }

  runtimes_.clear();
  for (int s = 0; s < num_shards(); ++s) {
    if (!populated[static_cast<usize>(s)]) {
      runtimes_.push_back(nullptr);
      continue;
    }
    core::RuntimeOptions options = options_.base;
    options.topology = shard_topologies_[static_cast<usize>(s)];
    // The stored sub-topology outlives every shard runtime (member
    // declaration order), so the analysis can keep pointing at it.
    options.analysis.topology = &shard_topologies_[static_cast<usize>(s)];
    runtimes_.push_back(std::make_unique<core::Runtime>(std::move(options)));
  }

  for (usize g = 0; g < groups_.size(); ++g) {
    const int s = plan_->groups[g].shard;
    for (const auto& config : groups_[g].configs) {
      if (auto st =
              runtimes_[static_cast<usize>(s)]->admit(config);
          !st) {
        return st;
      }
    }
  }

  for (auto& runtime : runtimes_) {
    if (runtime == nullptr) continue;
    if (auto st = runtime->start(); !st) {
      for (auto& r : runtimes_) {
        if (r != nullptr) r->stop();
      }
      return st;
    }
  }
  started_ = true;
  return common::Status::ok();
}

int ShardedRuntime::shard_of(u32 symbol) const {
  if (plan_ != nullptr) {
    for (usize g = 0; g < groups_.size(); ++g) {
      if (groups_[g].symbol == symbol) {
        return plan_->groups[g].shard;
      }
    }
  }
  const int shards = num_shards();
  return shards > 0 ? sched::home_shard(symbol, shards) : 0;
}

void ShardedRuntime::wait_all_finished() {
  for (auto& runtime : runtimes_) {
    if (runtime != nullptr) runtime->wait_all_finished();
  }
}

void ShardedRuntime::stop() {
  for (auto& runtime : runtimes_) {
    if (runtime != nullptr) runtime->stop();
  }
  started_ = false;
}

ShardedReport ShardedRuntime::stop_and_report() {
  ShardedReport report;
  for (auto& runtime : runtimes_) {
    report.shards.push_back(runtime != nullptr ? runtime->stop_and_report()
                                               : core::RuntimeReport{});
  }
  started_ = false;
  if (plan_ != nullptr) report.spill_count = plan_->spill_count;
  if (transport_ != nullptr) {
    report.ingress_drops = transport_->ingress_drops();
    report.egress_drops = transport_->egress_drops();
    report.pool_exhausted = transport_->pool_exhausted();
  }
  return report;
}

}  // namespace rtseed::shard
