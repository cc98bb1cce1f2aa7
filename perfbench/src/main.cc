// qnet_perfbench: the repository's end-to-end benchmark (see perfbench/README.md).
//
//   qnet_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//
// Prints a manifest line, human-readable notes and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 0 only when every
// output check passed; 1 on a failed check, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "report.h"
#include "workload.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "error: %s\nusage: qnet_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-dir DIR]\nworkloads:",
               problem);
  for (const perfbench::Workload& workload : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", workload.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseInteger(const std::string& text, long long min, long long max, long long& out) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || value < min || value > max) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_dir;
  long long seed = -1;
  long long seconds = -1;
  long long trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--spans-dir") {
      spans_dir = value;
    } else if (flag == "--seed") {
      ok = ParseInteger(value, 0, (1LL << 62), seed);
    } else if (flag == "--seconds") {
      ok = ParseInteger(value, 0, 3600, seconds);
    } else if (flag == "--trace") {
      ok = ParseInteger(value, 0, 1, trace);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(workload_name);
  if (workload == nullptr) {
    return Usage("unknown or missing --workload");
  }
  if (seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }

  try {
    // Before anything runs: every thread the system starts then shares the one CPU.
    const int pinned_cpu = perfbench::PinToOneCpu();
    std::printf("manifest: %s\n",
                perfbench::ManifestJson(workload->name, static_cast<unsigned long long>(seed),
                                        static_cast<int>(seconds), static_cast<int>(trace),
                                        pinned_cpu)
                    .c_str());
    const auto useed = static_cast<std::uint64_t>(seed);
    const perfbench::Trace generated = perfbench::GenerateTrace(*workload, useed);
    std::printf("trace: %zu tasks and %zu windows per lap, %zu laps per pass\n",
                generated.NumRecords(), workload->lap_windows, workload->pass_laps);
    const std::string spans_path =
        spans_dir.empty() ? std::string()
                          : spans_dir + "/" + workload->name + "-seed" + std::to_string(seed) +
                                ".csv";
    const perfbench::RunResult result =
        trace == 0 ? perfbench::RunEndToEnd(*workload, generated, useed,
                                            static_cast<double>(seconds))
                   : perfbench::RunTraced(*workload, generated, useed,
                                          static_cast<double>(seconds), spans_path);
    for (const std::string& note : result.notes) {
      std::printf("%s\n", note.c_str());
    }
    std::printf("%s\n", perfbench::ResultJson(result.correct, result.attempted, result.failed,
                                              result.metrics)
                            .c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "qnet_perfbench failed: %s\n", error.what());
    return 1;
  }
}
