#include "host.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "stats.hpp"

namespace pb {
namespace {

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    if (read_first_line(base + "level") == std::to_string(level) &&
        read_first_line(base + "type") != "Instruction") {
      return read_first_line(base + "size");
    }
  }
  return "unknown";
}

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000ull + std::uint64_t(ts.tv_nsec);
}

}  // namespace

void install_interrupt_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // A peer that goes away must surface as EPIPE, not kill the benchmark
  // before it reaps its children.
  signal(SIGPIPE, SIG_IGN);
}

bool interrupted() { return g_interrupted.load(); }

harness::Json fingerprint(const std::string& rev, const std::string& dirty) {
  harness::Json j = harness::Json::object();
  j.add("nproc", std::uint64_t(std::thread::hardware_concurrency()));
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  j.add("cpu_model", model);
  j.add("l2", cache_size(2));
  j.add("l3", cache_size(3));
  j.add("build_type", PERFBENCH_BUILD_TYPE);
  j.add("cxx_flags", PERFBENCH_CXX_FLAGS);
  j.add("rev", rev);
  j.add("dirty", dirty);
  return j;
}

std::string unfit_build_reason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer flags in the build";
  }
  return "";
}

namespace {

double chase_ns() {
  constexpr std::size_t kSlots = (32u << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kLoads = 1u << 21;
  // Sattolo's shuffle makes one cycle through every slot, so the chase
  // visits the whole buffer in a fixed pseudo-random order.
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = std::uint32_t(i);
  std::uint64_t rng = 0x6d656d70726f6265ull;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    const std::size_t j = splitmix64(rng) % i;
    std::swap(next[i], next[j]);
  }
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kLoads / 4; ++i) at = next[at];  // warm TLB
  const std::uint64_t t0 = clock_ns(CLOCK_MONOTONIC);
  for (std::size_t i = 0; i < kLoads; ++i) at = next[at];
  const std::uint64_t t1 = clock_ns(CLOCK_MONOTONIC);
  volatile std::uint32_t sink = at;  // keep the chase observable
  (void)sink;
  return double(t1 - t0) / double(kLoads);
}

}  // namespace

double mem_probe_ns() {
  // The chase runs in a child so its buffer never counts toward this
  // process's peak RSS.
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    const double ns = chase_ns();
    ssize_t w = ::write(fds[1], &ns, sizeof ns);
    std::_Exit(w == sizeof ns ? 0 : 1);
  }
  ::close(fds[1]);
  double ns = 0;
  const ssize_t r = ::read(fds[0], &ns, sizeof ns);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (r != sizeof ns) throw std::runtime_error("memory probe failed");
  return ns;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return double(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0.0;
}

double proc_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string f;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stoull(f);
    if (i == 15) stime = std::stoull(f);
  }
  return double(utime + stime) * 1000.0 / double(sysconf(_SC_CLK_TCK));
}

std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

ScratchDir::ScratchDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  path_ = parent + "/tmp-" + std::to_string(::getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

ChildProcess::ChildProcess(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
}

ChildProcess::~ChildProcess() { stop(); }

void ChildProcess::stop(int grace_ms) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

}  // namespace pb
