#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace perfbench {

namespace {

using std::chrono::steady_clock;

// Reap `pid` if it has exited; stores the wait status.
bool reaped(pid_t pid, int* status) {
  const pid_t rc = ::waitpid(pid, status, WNOHANG);
  return rc == pid;
}

}  // namespace

ServerProcess::ServerProcess(std::string binary, std::vector<std::string> flags,
                             unsigned pool_threads, std::string work_dir,
                             std::string tag)
    : binary_(std::move(binary)),
      flags_(std::move(flags)),
      pool_threads_(pool_threads),
      port_file_(work_dir + "/" + tag + ".port"),
      log_file_(work_dir + "/" + tag + ".log") {}

ServerProcess::~ServerProcess() { stop(5.0); }

void ServerProcess::start(double timeout_s) {
  ::unlink(port_file_.c_str());
  std::vector<std::string> args = {binary_};
  args.insert(args.end(), flags_.begin(), flags_.end());
  args.push_back("--port");
  args.push_back("0");
  args.push_back("--port-file");
  args.push_back(port_file_);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  // Built before fork: the child only makes async-signal-safe calls.
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::string_view(*entry).rfind("SYBILTD_THREADS=", 0) != 0) {
      env.emplace_back(*entry);
    }
  }
  env.push_back("SYBILTD_THREADS=" + std::to_string(pool_threads_));
  std::vector<char*> envp;
  for (std::string& entry : env) envp.push_back(entry.data());
  envp.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: die with the driver, keep stdout clean for the result line.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_file_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }

  const auto deadline =
      steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (steady_clock::now() < deadline) {
    int status = 0;
    if (reaped(pid_, &status)) {
      pid_ = -1;
      throw std::runtime_error("server exited during start-up; see " +
                               log_file_);
    }
    std::ifstream in(port_file_);
    unsigned port = 0;
    std::string line;
    if (std::getline(in, line) && !line.empty()) {
      port = static_cast<unsigned>(std::strtoul(line.c_str(), nullptr, 10));
      if (port > 0 && port < 65536) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop(1.0);
  throw std::runtime_error("server did not report a port; see " + log_file_);
}

bool ServerProcess::stop(double timeout_s) {
  if (pid_ <= 0) return false;
  int status = 0;
  bool exited = reaped(pid_, &status);
  if (!exited) {
    ::kill(pid_, SIGTERM);
    const auto deadline =
        steady_clock::now() + std::chrono::duration<double>(timeout_s);
    while (!(exited = reaped(pid_, &status)) && steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
