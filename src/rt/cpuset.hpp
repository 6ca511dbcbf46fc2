// Value-semantic wrapper around cpu_set_t.
#pragma once

#include <sched.h>

#include <string>

#include "common/status.hpp"
#include "common/types.hpp"

namespace rtseed::rt {

using common::CpuId;

class CpuSet {
 public:
  CpuSet() { CPU_ZERO(&set_); }

  static CpuSet single(CpuId cpu) {
    CpuSet s;
    s.add(cpu);
    return s;
  }

  /// All CPUs currently online on this host.
  static CpuSet online();

  void add(CpuId cpu) { CPU_SET(cpu, &set_); }
  void remove(CpuId cpu) { CPU_CLR(cpu, &set_); }
  bool contains(CpuId cpu) const { return CPU_ISSET(cpu, &set_); }
  int count() const { return CPU_COUNT(&set_); }
  bool empty() const { return count() == 0; }
  bool intersects(const CpuSet& other) const {
    cpu_set_t both;
    CPU_AND(&both, &set_, &other.set_);
    return CPU_COUNT(&both) != 0;
  }

  const cpu_set_t* native() const { return &set_; }
  cpu_set_t* native() { return &set_; }

  /// e.g. "{0,2,3}".
  std::string to_string() const;

  bool operator==(const CpuSet& other) const {
    return CPU_EQUAL(&set_, &other.set_);
  }

 private:
  cpu_set_t set_;
};

/// Pins the calling thread; PERMISSION_DENIED/UNAVAILABLE on failure.
common::Status set_current_affinity(const CpuSet& cpus);

/// Affinity mask of the calling thread.
common::Expected<CpuSet> get_current_affinity();

/// Affinity mask of thread `tid` — for a process id, its main thread.
common::Expected<CpuSet> get_affinity(int tid);

/// CPU the calling thread is currently executing on.
CpuId current_cpu();

}  // namespace rtseed::rt
