// Host record and /proc probes: what machine the run measured on, how
// noisy it was while measuring, and the memory/CPU of bench processes.
#include <sys/utsname.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string proc_path(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

u64 proc_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  u64 fields[8] = {};
  in >> cpu;
  for (u64& f : fields) in >> f;
  return cpu == "cpu" ? fields[7] : 0;
}

}  // namespace

HostRecord host_begin() {
  HostRecord host;
  host.nproc = static_cast<int>(std::thread::hardware_concurrency());
  host.cpu_model = read_cpu_model();
  struct utsname uts {};
  if (::uname(&uts) == 0) host.kernel = uts.release;
  host.steal_ticks = proc_steal_ticks();
  return host;
}

void host_end(HostRecord& host) {
  host.steal_ticks = proc_steal_ticks() - host.steal_ticks;
  // Spin-gap calibration: a thread reading the clock back to back should
  // see consecutive reads well under a microsecond apart; anything past
  // 20 µs is time the host took away (preemption, steal, SMIs).
  constexpr Nanos kSpin = rtseed::common::millis(100);
  constexpr Nanos kGap = rtseed::common::micros(20);
  const Nanos begin = rtseed::common::monotonic_now();
  Nanos prev = begin;
  Nanos lost = 0;
  Nanos worst = 0;
  for (;;) {
    const Nanos now = rtseed::common::monotonic_now();
    const Nanos gap = now - prev;
    if (gap > kGap) {
      lost += gap;
      if (gap > worst) worst = gap;
    }
    prev = now;
    if (now - begin >= kSpin) break;
  }
  host.spin_gap_pct =
      100.0 * static_cast<double>(lost) / static_cast<double>(prev - begin);
  host.spin_gap_max_us = static_cast<double>(worst) / 1e3;
}

double peak_rss_mib(int pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool proc_cpu_seconds(int pid, double* user_s, double* sys_s) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields resume after its ')'.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(text.substr(close + 1));
  std::string field;
  // After ')': state is field 3; utime and stime are fields 14 and 15.
  for (int i = 3; i < 14; ++i) fields >> field;
  double utime = 0.0, stime = 0.0;
  if (!(fields >> utime >> stime)) return false;
  const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  *user_s = utime / hz;
  *sys_s = stime / hz;
  return true;
}

}  // namespace perfbench
