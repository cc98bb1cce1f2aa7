#include "report.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "qnet/support/check.h"
#include "qnet/telemetry/timeline.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <sched.h>

namespace perfbench {
namespace {

double RelativeError(double estimate, double truth) {
  return std::abs(estimate - truth) / truth;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c >= 0x20 ? c : ' ';
  }
  return out;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  QNET_CHECK(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

Accuracy MeasureAccuracy(const Trace& trace, const std::vector<qnet::WindowEstimate>& estimates) {
  const std::size_t lap_windows = trace.window_begin.size() - 1;
  std::vector<double> service;
  std::vector<double> wait;
  std::vector<double> arrival;
  for (std::size_t w = 0; w < estimates.size(); ++w) {
    const qnet::WindowEstimate& estimate = estimates[w];
    const std::size_t j = w % lap_windows;
    arrival.push_back(RelativeError(estimate.rates[0], trace.true_arrival_rate[j]));
    for (std::size_t q = 1; q < estimate.rates.size(); ++q) {
      service.push_back(RelativeError(estimate.rates[q], trace.true_service_rate[q]));
      const double truth = trace.true_wait[j][q];
      if (q < estimate.mean_wait.size() && std::isfinite(truth) && truth > 0.0) {
        wait.push_back(RelativeError(estimate.mean_wait[q], truth));
      }
    }
  }
  QNET_CHECK(!service.empty() && !wait.empty(), "no windows to score");
  Accuracy accuracy;
  accuracy.svc_rate_rel_err_p50 = Median(std::move(service));
  accuracy.wait_rel_err_p50 = Median(std::move(wait));
  accuracy.arrival_rate_rel_err_p50 = Median(std::move(arrival));
  return accuracy;
}

bool WithinEnvelope(const Workload& workload, const Accuracy& accuracy) {
  return accuracy.svc_rate_rel_err_p50 < workload.max_svc_rate_rel_err &&
         accuracy.wait_rel_err_p50 < workload.max_wait_rel_err &&
         accuracy.arrival_rate_rel_err_p50 < workload.max_arrival_rate_rel_err;
}

std::size_t CountBadWindows(const Workload& workload, const Trace& trace,
                            const std::vector<qnet::WindowEstimate>& estimates) {
  const std::size_t expected = workload.PassWindows();
  const std::size_t common = std::min(expected, estimates.size());
  std::size_t bad = std::max(expected, estimates.size()) - common;
  for (std::size_t w = 0; w < common; ++w) {
    const qnet::WindowEstimate& estimate = estimates[w];
    bool ok = estimate.t0 == static_cast<double>(w) * kWindowSeconds &&
              estimate.t1 == static_cast<double>(w + 1) * kWindowSeconds &&
              estimate.tasks == trace.WindowTasks(w % workload.lap_windows) &&
              estimate.merged_tail_tasks == 0 &&
              estimate.rates.size() == static_cast<std::size_t>(trace.num_queues);
    for (const double rate : estimate.rates) {
      ok = ok && std::isfinite(rate) && rate > 0.0;
    }
    for (const double wait : estimate.mean_wait) {
      ok = ok && std::isfinite(wait) && wait >= 0.0;
    }
    bad += ok ? 0 : 1;
  }
  return bad;
}

std::size_t CountMismatches(const std::vector<qnet::WindowEstimate>& a,
                            const std::vector<qnet::WindowEstimate>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t mismatches = std::max(a.size(), b.size()) - common;
  for (std::size_t w = 0; w < common; ++w) {
    const qnet::WindowEstimate& x = a[w];
    const qnet::WindowEstimate& y = b[w];
    const bool same = SameBits(x.t0, y.t0) && SameBits(x.t1, y.t1) && x.tasks == y.tasks &&
                      x.merged_tail_tasks == y.merged_tail_tasks &&
                      x.window_local_arrival_rate == y.window_local_arrival_rate &&
                      x.degraded == y.degraded && x.fit_iterations == y.fit_iterations &&
                      x.alerts == y.alerts && SameBits(x.rates, y.rates) &&
                      SameBits(x.mean_wait, y.mean_wait);
    mismatches += same ? 0 : 1;
  }
  return mismatches;
}

double PeakRssMb() {
  // VmHWM is this program's own high-water mark. getrusage's ru_maxrss is not used: it
  // survives execve, so it would report a larger launcher (the Python wrapper) instead.
  std::ifstream status("/proc/self/status");
  std::string line;
  double peak_mb = -1.0;
  while (peak_mb < 0.0 && std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      peak_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  QNET_CHECK(peak_mb > 0.0, "no VmHWM in /proc/self/status: peak RSS cannot be measured");
  return peak_mb;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  QNET_CHECK(sched_getaffinity(0, sizeof(allowed), &allowed) == 0,
             "cannot read the process's CPU affinity");
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) {
      cpu = i;
    }
  }
  QNET_CHECK(cpu >= 0, "the process may run on no CPU");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  QNET_CHECK(sched_setaffinity(0, sizeof(one), &one) == 0, "cannot pin the process to a CPU");
  return cpu;
}

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buffer[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.12g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buffer +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

std::string ManifestJson(const std::string& workload, unsigned long long seed, int seconds,
                         int trace, int pinned_cpu) {
  std::string json = "{\"workload\": \"" + Escaped(workload) + "\"";
  json += ", \"seed\": " + std::to_string(seed);
  json += ", \"seconds\": " + std::to_string(seconds);
  json += ", \"trace\": " + std::to_string(trace);
  json += ", \"git_sha\": \"" + Escaped(EnvOr("PERFBENCH_GIT_SHA", "unknown")) + "\"";
  json += ", \"source_sha256\": \"" + Escaped(EnvOr("PERFBENCH_SOURCE_SHA256", "unknown")) +
          "\"";
  json += ", \"compiler\": \"" + Escaped(PERFBENCH_COMPILER) + "\"";
  json += ", \"build_type\": \"" + Escaped(PERFBENCH_BUILD_TYPE) + "\"";
  json += ", \"flags\": \"" + Escaped(PERFBENCH_FLAGS) + "\"";
  json += ", \"qnet_telemetry\": " + std::to_string(QNET_TELEMETRY);
  json += ", \"timeline_level\": " + std::to_string(qnet::Timeline::Level());
  json += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"pinned_cpu\": " + std::to_string(pinned_cpu);
  json += ", \"cpu_model\": \"" + Escaped(CpuModel()) + "\"}";
  return json;
}

}  // namespace perfbench
