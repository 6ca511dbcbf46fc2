// ShardedRuntime — N pinned core::Runtime instances over carved
// sub-topologies, fed through the zero-allocation transport
// (DESIGN.md §12).
//
// Scaling a single Runtime past one LLC domain runs into two walls: the
// dispatch structures bounce between cache domains, and the P-RMWP
// analysis treats remote cores as interchangeable with local ones.  A
// sharded deployment instead carves the machine into S shard groups
// (whole LLC domains by default), gives each its own Runtime planning
// against its own subset topology, and routes work between them by
// trading symbol: sched::plan_sharded places every symbol's task group
// on one shard (home by hash, spill by least-load), and market ticks
// follow the same placement through ShardTransport.
//
// Environment knob (read when the option is unset):
//   RTSEED_SHARDS        number of shards (default: one per LLC domain)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/topology.hpp"
#include "core/runtime.hpp"
#include "sched/sharded.hpp"
#include "shard/router.hpp"
#include "shard/transport.hpp"

namespace rtseed::shard {

/// Splits `topology` into `num_shards` non-empty core groups (sizes
/// differ by at most one) by contiguous cuts of the (node, LLC)-ordered
/// core list: whole LLC domains per shard where the shapes divide, so a
/// shard's working set never straddles a cache boundary.  Requires
/// 1 <= num_shards <= num_cores.
std::vector<std::vector<common::CoreId>> carve_shards(
    const common::Topology& topology, int num_shards);

struct ShardedRuntimeOptions {
  /// Template for every shard's Runtime.  `base.topology` is the WHOLE
  /// machine; each shard receives a subset of it.  `base.analysis
  /// .topology` is overridden per shard (it must not dangle here).
  core::RuntimeOptions base;
  /// 0 = RTSEED_SHARDS env, else one shard per LLC domain.
  int num_shards = 0;
  /// When true (default), an unset num_shards falls back to the env.
  bool from_env = true;
  TransportOptions transport;
};

struct ShardedReport {
  std::vector<core::RuntimeReport> shards;
  int spill_count = 0;
  u64 ingress_drops = 0;
  u64 egress_drops = 0;
  u64 pool_exhausted = 0;
};

class ShardedRuntime : public ShardRouter {
 public:
  explicit ShardedRuntime(ShardedRuntimeOptions options);
  ~ShardedRuntime() override;

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Registers `config` under `symbol`.  All of one symbol's tasks form
  /// an indivisible group placed on a single shard.
  common::Status admit(core::TaskConfig config, u32 symbol);

  /// Offline analysis: carve shards, build sub-topologies, run
  /// sched::plan_sharded.  Idempotent; invoked lazily by start().
  common::Expected<sched::ShardedPlan> analyze();

  /// Builds the transport, instantiates the per-shard Runtimes, admits
  /// every group into its planned shard, and starts them all.
  common::Status start();

  void wait_all_finished();
  void stop();
  ShardedReport stop_and_report();

  int num_shards() const override {
    return static_cast<int>(shard_cores_.size());
  }
  bool started() const { return started_; }

  /// The shard that owns `symbol` under the current plan: its home shard
  /// unless its group spilled.  Falls back to the stateless hash rule
  /// for symbols the plan has never seen (they carry no tasks, but their
  /// ticks still need a destination).
  int shard_of(u32 symbol) const override;

  /// Cores of shard `s` (parent topology core ids).
  const std::vector<common::CoreId>& shard_cores(int s) const {
    return shard_cores_[static_cast<usize>(s)];
  }
  const common::Topology& shard_topology(int s) const {
    return shard_topologies_[static_cast<usize>(s)];
  }

  /// Valid after start().
  ShardTransport* transport() override { return transport_.get(); }
  core::Runtime* shard_runtime(int s) {
    return runtimes_[static_cast<usize>(s)].get();
  }

 private:
  struct Group {
    u32 symbol = 0;
    std::vector<core::TaskConfig> configs;
  };

  common::Status carve();  ///< resolves shard count/policy, fills cores

  ShardedRuntimeOptions options_;
  std::vector<Group> groups_;  ///< admission order preserved
  std::vector<std::vector<common::CoreId>> shard_cores_;
  std::vector<common::Topology> shard_topologies_;
  std::unique_ptr<sched::ShardedPlan> plan_;
  std::unique_ptr<ShardTransport> transport_;
  std::vector<std::unique_ptr<core::Runtime>> runtimes_;
  bool started_ = false;
};

}  // namespace rtseed::shard
