// Micro-benchmark of the mandatory↔optional wake path, A/B across the
// OptionalPool backends (batched futex generation word, legacy
// mutex+condvar):
//
//   signal_window   — the Δb loop alone: per-round time spent publishing
//                     the job and waking np parts (RoundResult timestamps);
//   complete_wake   — the completion path alone: last part ended → the
//                     mandatory thread observes the round finished;
//   full_round      — wall time of run_round with empty bodies, i.e. the
//                     whole protocol round trip (Δb + Δs + body + Δe).
//
// Every benchmark publishes three machine-checkable counters
// (gates.json → BENCH_wake.json):
//   wakes_per_round   rt::wake_word syscalls per iteration — ≈1+1 for
//                     the batched backend at any np;
//   sleeps_per_round  kernel sleeps entered by either side;
//   allocs_per_round  heap allocations per iteration, ticked by the
//                     linked rtseed_alloc_hook — steady state is ZERO.
//
// Bodies are empty and run under kPeriodicCheck so the termination
// machinery (timers, signals) stays out of the picture — what remains IS
// the handoff protocol.  fifo_priority is 0 so the benchmark runs
// unprivileged; absolute numbers shrink on real RT hosts but the
// backend ordering is the same (fewer syscalls, no mutex convoy).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "core/assignment.hpp"
#include "gbench_json_main.hpp"
#include "core/optional_pool.hpp"
#include "obs/hotpath_audit.hpp"
#include "rt/futex.hpp"
#include "rt/topology.hpp"

using namespace rtseed;

namespace {

using common::Nanos;

std::unique_ptr<core::OptionalPool> make_pool(
    core::WakeBackend backend, int np,
    core::OptionalPool::PartBody body = nullptr) {
  core::OptionalPool::Options options;
  options.termination = core::TerminationStrategy::kPeriodicCheck;
  options.fifo_priority = 0;
  options.cpus = core::assign_optional_parts(
      rt::Topology::native(), core::AssignmentPolicy::kOneByOne, np);
  options.name_prefix = "bench";
  options.wake_backend = backend;
  if (!body) body = [](const core::JobContext&, int, core::StopToken&) {};
  return std::make_unique<core::OptionalPool>(std::move(options),
                                              std::move(body));
}

// Arg values match the earlier baselines' rows: 1 = condvar, 2 = batch.
core::WakeBackend backend_of(const benchmark::State& state) {
  return state.range(0) == 1 ? core::WakeBackend::kCondvar
                             : core::WakeBackend::kFutexBatch;
}

// Snapshot of the gated hot-path resource counters; publish() divides the
// deltas over the iterations just timed.  Constructed AFTER pool start and
// warm-up so thread spawning is not charged to the steady state.
struct CounterWindow {
  obs::HotpathAudit audit;
  void publish(benchmark::State& state) const {
    const auto wake = audit.wake_delta();
    const auto alloc = audit.alloc_delta();
    const auto iters =
        static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
    state.counters["wakes_per_round"] =
        static_cast<double>(wake.wake_calls) / iters;
    state.counters["sleeps_per_round"] =
        static_cast<double>(wake.wait_sleeps) / iters;
    state.counters["allocs_per_round"] =
        static_cast<double>(alloc.alloc_calls) / iters;
  }
};

void warm_up(core::OptionalPool& pool, int np) {
  for (int round = 0; round < 10; ++round) {
    core::JobContext ctx;
    ctx.job = round;
    ctx.release = common::monotonic_now();
    ctx.deadline = ctx.release + common::seconds(10);
    ctx.optional_deadline = ctx.deadline;
    (void)pool.run_round(ctx, np);
  }
}

core::JobContext next_job(common::JobId job) {
  core::JobContext ctx;
  ctx.job = job;
  ctx.release = common::monotonic_now();
  ctx.deadline = ctx.release + common::seconds(10);
  ctx.optional_deadline = ctx.release + common::seconds(10);
  return ctx;
}

// Δb in isolation: the signal loop's own window, as timestamped by
// run_round itself (one publish + exchange + conditional wake per part).
void BM_SignalWindow(benchmark::State& state) {
  const int np = static_cast<int>(state.range(1));
  auto pool = make_pool(backend_of(state), np);
  if (!pool->start().is_ok()) {
    state.SkipWithError("pool start failed");
    return;
  }
  warm_up(*pool, np);
  const CounterWindow window;
  common::JobId job = 0;
  for (auto _ : state) {
    const auto round = pool->run_round(next_job(job++), np);
    state.SetIterationTime(
        static_cast<double>(round.signal_end - round.signal_start) * 1e-9);
  }
  window.publish(state);
  state.SetLabel(core::wake_backend_name(pool->backend()));
}
BENCHMARK(BM_SignalWindow)
    ->ArgsProduct({{1, 2}, {1, 2, 4}})
    ->ArgNames({"backend", "np"})
    ->UseManualTime();

// The completion path in isolation: from the moment the last part's body
// returned (worker-side timestamp) to run_round returning control to the
// caller — the countdown + wake that Δe pays on every round.
void BM_CompleteWake(benchmark::State& state) {
  const int np = static_cast<int>(state.range(1));
  std::atomic<Nanos> last_body_end{0};
  auto pool = make_pool(
      backend_of(state), np,
      [&last_body_end](const core::JobContext&, int, core::StopToken&) {
        const Nanos now = common::monotonic_now();
        Nanos prev = last_body_end.load(std::memory_order_relaxed);
        while (prev < now && !last_body_end.compare_exchange_weak(
                                 prev, now, std::memory_order_relaxed)) {
        }
      });
  if (!pool->start().is_ok()) {
    state.SkipWithError("pool start failed");
    return;
  }
  warm_up(*pool, np);
  const CounterWindow window;
  common::JobId job = 0;
  for (auto _ : state) {
    last_body_end.store(0, std::memory_order_relaxed);
    (void)pool->run_round(next_job(job++), np);
    const Nanos back = common::monotonic_now();
    state.SetIterationTime(
        static_cast<double>(back -
                            last_body_end.load(std::memory_order_relaxed)) *
        1e-9);
  }
  window.publish(state);
  state.SetLabel(core::wake_backend_name(pool->backend()));
}
BENCHMARK(BM_CompleteWake)
    ->ArgsProduct({{1, 2}, {1, 2, 4}})
    ->ArgNames({"backend", "np"})
    ->UseManualTime();

// The whole protocol round trip with empty bodies: what a maximally fast
// optional phase costs end to end.
void BM_FullRound(benchmark::State& state) {
  const int np = static_cast<int>(state.range(1));
  auto pool = make_pool(backend_of(state), np);
  if (!pool->start().is_ok()) {
    state.SkipWithError("pool start failed");
    return;
  }
  warm_up(*pool, np);
  const CounterWindow window;
  common::JobId job = 0;
  for (auto _ : state) {
    const auto round = pool->run_round(next_job(job++), np);
    benchmark::DoNotOptimize(round.completed);
  }
  window.publish(state);
  state.SetLabel(core::wake_backend_name(pool->backend()));
}
BENCHMARK(BM_FullRound)
    ->ArgsProduct({{1, 2}, {1, 2, 4}})
    ->ArgNames({"backend", "np"});

}  // namespace

RTSEED_BENCHMARK_JSON_MAIN();
