// avmon_perfbench: runs one benchmark workload in this process and prints
// one JSON object on stdout's last line (metrics with units, checks,
// attempted/failed operations, provenance). perfbench/run.py builds this
// program, runs it, and turns its output into the benchmark's result line.
//
//   avmon_perfbench --workload stat-20k|synth-bd-2k|live-rpc --seed N
//                   --seconds S --trace 0|1 [--size full|tiny]
//                   [--shards K] [--corrupt-expected] [--spans-out FILE]
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <string>
#include <thread>

#include "report.hpp"
#include "traced_protocol.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peakRssBytes() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would do, except that Linux carries it across execve, so a child of a
  // large parent starts with the parent's peak.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb * 1024.0;
}

double processCpuSeconds() {
  timespec ts{};
  // lint:allow(wall-clock, cpu_s is process CPU time by definition; never linked into the program under test)
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// The CPUs this process may run on, read once before anything pins.
const std::vector<int>& allowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void pinToCpu(std::size_t slot) {
  const std::vector<int>& cpus = allowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

void unpinCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : allowedCpus()) CPU_SET(c, &set);
  if (!allowedCpus().empty()) sched_setaffinity(0, sizeof set, &set);
}

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printReport(const Report& r, const RunOptions& o) {
  std::string out = "{\"correct\": ";
  out += (r.failed == 0 && r.allChecksPassed()) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
           ", \"unit\": " + jsonString(m.unit) + "}";
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out += (i ? ", " : "") + std::string("{\"name\": ") + jsonString(c.name) +
           ", \"passed\": " + (c.passed ? "true" : "false") +
           ", \"detail\": " + jsonString(c.detail) + "}";
  }
  out += "], \"info\": {";
  auto info = r.info;
  info.emplace_back("workload", o.workload);
  info.emplace_back("seed", std::to_string(o.seed));
  info.emplace_back("mode", o.trace ? "traced" : "untraced");
  info.emplace_back("size", o.size);
  info.emplace_back("compiler", __VERSION__);
#ifdef __OPTIMIZE__
  info.emplace_back("optimized", "1");
#else
  info.emplace_back("optimized", "0");
#endif
  info.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  info.emplace_back("cxx_flags", PERFBENCH_CXX_FLAGS);
  info.emplace_back("hw_threads", std::to_string(std::thread::hardware_concurrency()));
  for (std::size_t i = 0; i < info.size(); ++i) {
    out += (i ? ", " : "") + jsonString(info[i].first) + ": " + jsonString(info[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "avmon_perfbench: %s\n"
               "usage: avmon_perfbench --workload stat-20k|synth-bd-2k|live-rpc --seed N\n"
               "       --seconds S --trace 0|1 [--size full|tiny] [--shards K]\n"
               "       [--corrupt-expected] [--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    try {
      if (arg == "--workload" && hasValue) {
        o.workload = argv[++i];
      } else if (arg == "--seed" && hasValue) {
        o.seed = std::stoull(argv[++i]);
        haveSeed = true;
      } else if (arg == "--seconds" && hasValue) {
        o.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && hasValue) {
        o.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--size" && hasValue) {
        o.size = argv[++i];
      } else if (arg == "--shards" && hasValue) {
        o.shards = static_cast<unsigned>(std::stoul(argv[++i]));
      } else if (arg == "--corrupt-expected") {
        o.corruptExpected = true;
      } else if (arg == "--spans-out" && hasValue) {
        o.spansOut = argv[++i];
      } else {
        return usage(("unknown or incomplete option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty() || !haveSeed) return usage("--workload and --seed are required");
  if (o.size != "full" && o.size != "tiny") return usage("--size is full or tiny");

  try {
    registerTracedProtocol();
    Report report;
    if (o.workload == "live-rpc") {
      report = runLiveRpc(o);
    } else if (o.workload == "stat-20k" || o.workload == "synth-bd-2k") {
      report = runSimWorkload(o);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
    printReport(report, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avmon_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
