#include "host.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace fs = std::filesystem;

std::string buildHygieneViolation() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' (need Release or RelWithDebInfo)";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG undefined)";
#endif
#if defined(ADPM_FAULT_INJECTION) && ADPM_FAULT_INJECTION
  return "fault-injection build (ADPM_FAULT_INJECTION)";
#endif
#if defined(ADPM_DEBUG_CHECKS)
  return "debug invariant checks compiled in (ADPM_DEBUG_CHECKS)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
  return "";
}

namespace {

std::string firstLineWith(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return line;
  }
  return "";
}

std::string afterColon(const std::string& line) {
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos) return "";
  std::size_t start = line.find_first_not_of(" \t", colon + 1);
  return start == std::string::npos ? "" : line.substr(start);
}

}  // namespace

std::vector<std::pair<std::string, std::string>> hostFingerprint() {
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  out.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  out.emplace_back("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out.emplace_back("compiler", std::string("gcc ") + __VERSION__);
#endif
  out.emplace_back("cpu",
                   afterColon(firstLineWith("/proc/cpuinfo", "model name")));
  struct utsname u {};
  if (uname(&u) == 0) {
    out.emplace_back("kernel", std::string(u.sysname) + " " + u.release);
  }
  return out;
}

std::pair<unsigned long long, unsigned long long> hostStealJiffies() {
  std::istringstream line(firstLineWith("/proc/stat", "cpu "));
  std::string label;
  line >> label;
  unsigned long long total = 0;
  unsigned long long steal = 0;
  unsigned long long value = 0;
  // user nice system idle iowait irq softirq steal guest guest_nice; the
  // guest fields are already part of user and nice.
  for (int field = 0; field < 8 && line >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double selfCpuSeconds() {
  struct rusage u {};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double processCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double selfPeakRssMiB() {
  const std::string line = firstLineWith("/proc/self/status", "VmHWM:");
  return std::strtod(afterColon(line).c_str(), nullptr) / 1024.0;
}

std::size_t processThreads(pid_t pid) {
  const std::string line =
      firstLineWith("/proc/" + std::to_string(pid) + "/status", "Threads:");
  return std::strtoul(afterColon(line).c_str(), nullptr, 10);
}

// -- temp dir -----------------------------------------------------------------

TempDir::TempDir(const std::string& base) {
  static std::atomic<int> counter{0};
  path_ = (fs::absolute(base) / ("run-" + std::to_string(getpid()) + "-" +
                                 std::to_string(counter++)))
              .string();
  fs::remove_all(path_);
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::string TempDir::sub(const std::string& name) const {
  const std::string p = path_ + "/" + name;
  fs::create_directories(p);
  return p;
}

// -- server process -----------------------------------------------------------

namespace {

std::array<std::atomic<pid_t>, 8> g_servers{};

void registerServer(pid_t pid) {
  for (auto& slot : g_servers) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  throw std::runtime_error("too many spawned servers");
}

void unregisterServer(pid_t pid) {
  for (auto& slot : g_servers) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

}  // namespace

void killSpawnedServers() noexcept {
  for (auto& slot : g_servers) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

ServerProcess::ServerProcess(const std::string& binary,
                             std::vector<std::string> args,
                             const std::string& dir)
    : log_(dir + "/server.log") {
  const std::string portFile = dir + "/port";
  args.insert(args.begin(), binary);
  for (const char* extra : {"--port", "0", "--port-file"}) {
    args.emplace_back(extra);
  }
  args.push_back(portFile);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: die with the benchmark, log to the temp dir, exec the server.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int fd = open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  registerServer(pid_);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    std::ifstream in(portFile);
    unsigned port = 0;
    if (in >> port && port > 0 && port < 65536) {
      port_ = static_cast<std::uint16_t>(port);
      return;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      unregisterServer(pid_);
      pid_ = -1;
      throw std::runtime_error("session_server_cli exited before listening "
                               "(see " + log_ + ")");
    }
    if (std::chrono::steady_clock::now() > deadline) {
      kill();
      throw std::runtime_error("session_server_cli never wrote its port file");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServerProcess::~ServerProcess() { kill(); }

void ServerProcess::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  unregisterServer(pid_);
  pid_ = -1;
}

ServerProcess::Exit ServerProcess::stop(std::chrono::milliseconds grace) {
  Exit exit;
  if (pid_ <= 0) throw std::runtime_error("server already stopped");
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + grace;
  for (;;) {
    const pid_t r = wait4(pid_, &exit.status, WNOHANG, &exit.usage);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) throw std::runtime_error("wait4 failed");
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      while (wait4(pid_, &exit.status, 0, &exit.usage) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  unregisterServer(pid_);
  pid_ = -1;
  return exit;
}

}  // namespace perfbench
