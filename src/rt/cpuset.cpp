#include "rt/cpuset.hpp"

#include <cerrno>
#include <cstring>
#include <unistd.h>

namespace rtseed::rt {

CpuSet CpuSet::online() {
  CpuSet s;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  for (long cpu = 0; cpu < n; ++cpu) s.add(static_cast<CpuId>(cpu));
  return s;
}

std::string CpuSet::to_string() const {
  std::string out = "{";
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!contains(cpu)) continue;
    if (!first) out += ',';
    out += std::to_string(cpu);
    first = false;
  }
  out += '}';
  return out;
}

common::Status set_current_affinity(const CpuSet& cpus) {
  if (cpus.empty()) {
    return common::invalid_argument("affinity mask is empty");
  }
  if (sched_setaffinity(0, sizeof(cpu_set_t), cpus.native()) != 0) {
    return errno == EPERM
               ? common::permission_denied("sched_setaffinity")
               : common::unavailable(std::string("sched_setaffinity: ") +
                                     std::strerror(errno));
  }
  return common::Status::ok();
}

common::Expected<CpuSet> get_current_affinity() { return get_affinity(0); }

common::Expected<CpuSet> get_affinity(int tid) {
  CpuSet s;
  if (sched_getaffinity(tid, sizeof(cpu_set_t), s.native()) != 0) {
    return common::unavailable(std::string("sched_getaffinity: ") +
                               std::strerror(errno));
  }
  return s;
}

CpuId current_cpu() { return sched_getcpu(); }

}  // namespace rtseed::rt
