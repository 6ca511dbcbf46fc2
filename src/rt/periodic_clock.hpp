// Absolute-time periodic release clock.
//
// Implements the paper's release pattern: the mandatory thread sleeps until
// its next release in clock_nanosleep(TIMER_ABSTIME) on CLOCK_MONOTONIC.
// Using absolute deadlines avoids cumulative drift; a job that finishes
// after its next release time is detected as an overrun and releases are
// skipped forward (never executed back-to-back to "catch up").
//
// Early wake.  clock_nanosleep returns late — timer slack, and on a
// virtual CPU the exit from the idle state — and that lateness lands on
// the start of every job (the paper's Δm).  A clock built with
// `early_wake` sleeps until `release − lead` instead and spins the rest of
// the way, returning only once monotonic_now() >= release: a release still
// never fires early.  The lead is calibrated from the observed sleep
// lateness (WakeLead) and is at most period/16.  The spin is execution
// the response-time analysis does not count, so only a task whose
// processor hosts no other task's mandatory thread may use it
// (core::TaskPlacement::exclusive_processor).
#pragma once

#include "common/time.hpp"
#include "common/types.hpp"

namespace rtseed::rt {

using common::JobId;
using common::Nanos;

/// Lead of the early release wake: 2 × EWMA(1/8) of the observed sleep
/// lateness.  Each sample is clamped to cap/2 before it enters the
/// average, so one steal spike moves the lead by at most cap/8 and the
/// lead never exceeds the cap, period/16.
class WakeLead {
 public:
  explicit WakeLead(Nanos period) : cap_(period / 16) {}

  /// Feeds one lateness sample: how long after its target a sleep
  /// returned.
  void observe(Nanos lateness);

  Nanos lead() const { return 2 * average_; }
  Nanos cap() const { return cap_; }

 private:
  Nanos cap_;
  Nanos average_ = 0;
};

class PeriodicClock {
 public:
  /// Period must be positive.  The first release is `initial_offset` after
  /// start() is called.  `early_wake` enables the calibrated early wake
  /// (see the file comment).
  explicit PeriodicClock(Nanos period, Nanos initial_offset = 0,
                         bool early_wake = false);

  /// Anchors release 0 at now + initial_offset.
  void start();

  /// Waits until the next release; returns its absolute time.  On return
  /// monotonic_now() >= the release.  Must be called after start().
  Nanos wait_next_release();

  /// Absolute time of the release that wait_next_release() returned last.
  Nanos current_release() const { return current_release_; }
  /// Absolute deadline of the current job (release + period).
  Nanos current_deadline() const { return current_release_ + period_; }
  /// Index of the current job (0-based), counting skipped releases.
  JobId job_index() const { return job_index_; }
  /// Number of releases skipped because the previous job ran past them.
  long overruns() const { return overruns_; }
  /// Number of times the sleep returned before its target time (clock
  /// anomaly, e.g. an interrupted or mis-programmed sleep); each was
  /// answered by re-sleeping, so releases never fired early.
  long clock_anomalies() const { return clock_anomalies_; }
  /// Current early-wake lead (0 unless early_wake is on).
  Nanos wake_lead() const { return early_wake_ ? lead_.lead() : 0; }

  Nanos period() const { return period_; }

 private:
  /// sleep_until that detects early returns (clock anomalies) and
  /// re-sleeps so no release ever fires before its time.  Returns the
  /// time it observed on waking (>= abs_time).
  Nanos sleep_until_checked(Nanos abs_time);

  Nanos period_;
  Nanos initial_offset_;
  bool early_wake_;
  WakeLead lead_;
  Nanos next_release_ = 0;
  Nanos current_release_ = 0;
  JobId job_index_ = -1;
  long overruns_ = 0;
  long clock_anomalies_ = 0;
  bool started_ = false;
};

/// Sleeps until the given absolute CLOCK_MONOTONIC time (EINTR-safe).
void sleep_until(Nanos abs_time);

/// Sleeps for the given duration (EINTR-safe).
void sleep_for(Nanos duration);

}  // namespace rtseed::rt
