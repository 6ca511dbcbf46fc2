#include "rt/periodic_clock.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <ctime>

#include "fault/injector.hpp"
#include "rt/futex.hpp"

namespace rtseed::rt {

void sleep_until(Nanos abs_time) {
  const timespec ts = common::to_timespec(abs_time < 0 ? 0 : abs_time);
  int rc;
  do {
    rc = clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
  } while (rc == EINTR);
}

void sleep_for(Nanos duration) {
  if (duration <= 0) return;
  sleep_until(common::monotonic_now() + duration);
}

void WakeLead::observe(Nanos lateness) {
  const Nanos sample = std::clamp<Nanos>(lateness, 0, cap_ / 2);
  average_ += (sample - average_) / 8;
}

PeriodicClock::PeriodicClock(Nanos period, Nanos initial_offset,
                             bool early_wake)
    : period_(period),
      initial_offset_(initial_offset),
      early_wake_(early_wake),
      lead_(period) {
  assert(period > 0);
}

void PeriodicClock::start() {
  next_release_ = common::monotonic_now() + initial_offset_;
  job_index_ = -1;
  overruns_ = 0;
  clock_anomalies_ = 0;
  started_ = true;
}

Nanos PeriodicClock::sleep_until_checked(Nanos abs_time) {
  for (;;) {
    // Chaos: the sleep returns early, as a mis-programmed timer or a
    // stepped clock would make it.
    if (fault::try_fire(fault::InjectPoint::kClockJump)) {
      const Nanos early = abs_time - fault::injected_jump_ns();
      if (early > common::monotonic_now()) sleep_until(early);
    } else {
      sleep_until(abs_time);
    }
    // An early return must never release a job before its time: count the
    // anomaly and go back to sleep for the remainder.
    const Nanos now = common::monotonic_now();
    if (now >= abs_time) return now;
    ++clock_anomalies_;
  }
}

Nanos PeriodicClock::wait_next_release() {
  assert(started_);
  const Nanos now = common::monotonic_now();
  // Skip releases the previous job ran through.
  while (next_release_ + period_ <= now) {
    next_release_ += period_;
    ++job_index_;
    ++overruns_;
  }
  if (next_release_ > now) {
    if (early_wake_) {
      const Nanos target = next_release_ - lead_.lead();
      if (target > now) lead_.observe(sleep_until_checked(target) - target);
      while (common::monotonic_now() < next_release_) cpu_relax();
    } else {
      sleep_until_checked(next_release_);
    }
  }
  current_release_ = next_release_;
  next_release_ += period_;
  ++job_index_;
  return current_release_;
}

}  // namespace rtseed::rt
