// Output checks, accuracy against ground truth, order statistics, the run manifest and
// the result line.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "qnet/stream/streaming_estimator.h"
#include "workload.h"

namespace perfbench {

// Linearly interpolated quantile (q in [0, 1]) of a nonempty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Medians over (window, queue) of |mu_hat - mu| / mu and |W_hat - W| / W, and over
// windows of |lambda_hat - lambda| / lambda, against the generating rates, the true
// per-window waits and the scripted arrival rate.
struct Accuracy {
  double svc_rate_rel_err_p50 = 0.0;
  double wait_rel_err_p50 = 0.0;
  double arrival_rate_rel_err_p50 = 0.0;
};
Accuracy MeasureAccuracy(const Trace& trace, const std::vector<qnet::WindowEstimate>& estimates);
// The workload's sanity envelope, which every run's accuracy must sit inside.
bool WithinEnvelope(const Workload& workload, const Accuracy& accuracy);

// Windows of one pass that fail the output checks: a window missing or extra against
// the seed's expected count, a span or task count other than the seed's expected one,
// a merged tail, or a rate or wait that is not finite (rates also not positive).
std::size_t CountBadWindows(const Workload& workload, const Trace& trace,
                            const std::vector<qnet::WindowEstimate>& estimates);
// Windows at which two estimate sequences differ in any field, bit for bit (a length
// difference counts every missing window).
std::size_t CountMismatches(const std::vector<qnet::WindowEstimate>& a,
                            const std::vector<qnet::WindowEstimate>& b);

// Whole-process peak resident set size so far.
double PeakRssMb();

// Restricts the whole process, and every thread it starts later, to the highest CPU it
// may run on, and returns that CPU's index (see README.md, Noise). Throws when the
// affinity cannot be read or set.
int PinToOneCpu();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on one line.
std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics);
// Build and host facts recorded with every result, as one JSON object.
std::string ManifestJson(const std::string& workload, unsigned long long seed, int seconds,
                         int trace, int pinned_cpu);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
