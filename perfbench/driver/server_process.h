// The server under test as a child process.  It is configured only through
// its own flags and SYBILTD_THREADS, listens on an ephemeral port reported
// through --port-file, and is killed with the driver if the driver dies.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  // `tag` names the port and log files under `work_dir`.
  ServerProcess(std::string binary, std::vector<std::string> flags,
                unsigned pool_threads, std::string work_dir, std::string tag);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Fork, exec and wait until the port file appears.  Throws on failure.
  void start(double timeout_s = 30.0);

  // SIGTERM (the server drains and exits 0), escalating to SIGKILL after
  // `timeout_s`.  Always reaps the child.  True on a clean exit 0.
  bool stop(double timeout_s = 30.0);

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  std::string binary_;
  std::vector<std::string> flags_;
  unsigned pool_threads_;
  std::string port_file_;
  std::string log_file_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
