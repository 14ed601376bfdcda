// Host facts and process hygiene: the run fingerprint, the memory-latency
// probe, /proc readers for RSS and CPU time, the interrupt flag, and RAII
// owners for the scratch directory and for child processes, so every exit
// path removes its files and reaps its children.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldc/harness/json.hpp"

namespace pb {

namespace harness = ldc::harness;

/// Thrown between ops once SIGINT/SIGTERM arrived.
class Interrupted : public std::runtime_error {
 public:
  Interrupted() : std::runtime_error("interrupted") {}
};

void install_interrupt_handlers();
bool interrupted();
/// Throws Interrupted when a signal arrived.
inline void check_interrupt() {
  if (interrupted()) throw Interrupted();
}

/// nproc, CPU model, L2/L3 sizes, build type and flags, plus what the
/// launcher passes in (source revision, dirty flag).
harness::Json fingerprint(const std::string& rev, const std::string& dirty);

/// Refuses builds whose timings mean nothing: unoptimized or sanitized.
/// Returns the reason, or "" when the build is fit to measure.
std::string unfit_build_reason();

/// Dependent-load chase over a 32 MiB ring (larger than L2): mean ns per
/// load. Same buffer and same chase order on every run.
double mem_probe_ns();

/// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid = 0);
/// utime + stime of `pid` in ms (clock-tick resolution); 0 when unreadable.
double proc_cpu_ms(pid_t pid);
/// CPU time of this whole process / of the calling thread, in ns.
std::uint64_t process_cpu_ns();
std::uint64_t thread_cpu_ns();

/// A private scratch directory under the run's output directory, removed
/// with everything in it when the owner goes away.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A spawned child process, stopped (SIGTERM, then SIGKILL after a grace
/// period) and reaped when the owner goes away.
class ChildProcess {
 public:
  explicit ChildProcess(const std::vector<std::string>& argv);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  pid_t pid() const { return pid_; }
  /// SIGTERM, wait up to grace_ms, then SIGKILL; always reaps.
  void stop(int grace_ms = 5000);

 private:
  pid_t pid_ = -1;
};

}  // namespace pb
