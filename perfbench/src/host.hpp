// Host, build and process plumbing: the build-hygiene gate, the host
// fingerprint recorded with every result, CPU/RSS accounting, the private
// temp directory, and the spawned session_server_cli.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Why this build must not be measured (Debug, sanitizer, fault-injection or
/// debug-check builds), or empty when it is fit to measure.
std::string buildHygieneViolation();

/// "key=value" pairs: nproc, build type, compiler, CPU model, kernel.
std::vector<std::pair<std::string, std::string>> hostFingerprint();

/// Host-wide CPU jiffies from /proc/stat: {steal, total}.  Steal is time
/// the hypervisor ran someone else on our CPUs; its share over a run tells
/// a noisy run from a slow program.
std::pair<unsigned long long, unsigned long long> hostStealJiffies();

/// CPU seconds (user + system) this process has used so far.
double selfCpuSeconds();

/// CPU seconds (user + system) of another live process, from /proc.
double processCpuSeconds(pid_t pid);

/// Peak resident set of this process in MiB (VmHWM).
double selfPeakRssMiB();

/// Threads of a live process (/proc/<pid>/status), 0 when unreadable.
std::size_t processThreads(pid_t pid);

/// A private directory under `base`, removed with everything in it when the
/// object is destroyed.
class TempDir {
 public:
  explicit TempDir(const std::string& base);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const noexcept { return path_; }
  /// A fresh subdirectory (created) named `name`.
  std::string sub(const std::string& name) const;

 private:
  std::string path_;
};

/// The shipped session_server_cli, spawned on an ephemeral port.  The child
/// dies with this process (PR_SET_PDEATHSIG), and the destructor kills and
/// reaps a server still running — no server outlives a failed run.
class ServerProcess {
 public:
  /// Spawns `binary args... --port 0 --port-file <dir>/port` with stdout and
  /// stderr in <dir>/server.log, and waits until the port file appears.
  ServerProcess(const std::string& binary, std::vector<std::string> args,
                const std::string& dir);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }

  struct Exit {
    int status = 0;  ///< raw wait status
    struct rusage usage {};
  };
  /// SIGTERM, then waits (SIGKILL after `grace`) and reaps; returns the
  /// child's rusage (peak RSS, CPU) from wait4.
  Exit stop(std::chrono::milliseconds grace);

 private:
  void kill();

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string log_;
};

/// Kills every live server this process spawned (signal-handler safe).
void killSpawnedServers() noexcept;

}  // namespace perfbench
