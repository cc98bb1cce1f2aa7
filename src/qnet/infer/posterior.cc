#include "qnet/infer/posterior.h"

#include "qnet/support/check.h"
#include "qnet/support/math.h"

namespace qnet {

PosteriorSummary::PosteriorSummary(int num_queues, double tail_quantile)
    : tail_quantile_(tail_quantile) {
  QNET_CHECK(num_queues >= 2, "bad queue count");
  QNET_CHECK(tail_quantile > 0.0 && tail_quantile < 1.0, "bad tail quantile");
  service_series_.resize(static_cast<std::size_t>(num_queues));
  wait_series_.resize(static_cast<std::size_t>(num_queues));
  tail_series_.resize(static_cast<std::size_t>(num_queues));
}

void PosteriorSummary::Accumulate(const EventLog& state) {
  QNET_CHECK(static_cast<std::size_t>(state.NumQueues()) == service_series_.size(),
             "queue count mismatch");
  const auto services = state.PerQueueMeanService();
  const auto waits = state.PerQueueMeanWait();
  const auto tails = state.PerQueueResponseQuantile(tail_quantile_);
  for (std::size_t q = 0; q < service_series_.size(); ++q) {
    service_series_[q].push_back(services[q]);
    wait_series_[q].push_back(waits[q]);
    tail_series_[q].push_back(tails[q]);
  }
  ++num_samples_;
}

void PosteriorSummary::Merge(const PosteriorSummary& other) {
  QNET_CHECK(other.service_series_.size() == service_series_.size(), "queue count mismatch");
  QNET_CHECK(other.tail_quantile_ == tail_quantile_, "tail quantile mismatch");
  for (std::size_t q = 0; q < service_series_.size(); ++q) {
    service_series_[q].insert(service_series_[q].end(), other.service_series_[q].begin(),
                              other.service_series_[q].end());
    wait_series_[q].insert(wait_series_[q].end(), other.wait_series_[q].begin(),
                           other.wait_series_[q].end());
    tail_series_[q].insert(tail_series_[q].end(), other.tail_series_[q].begin(),
                           other.tail_series_[q].end());
  }
  num_samples_ += other.num_samples_;
}

std::vector<double> PosteriorSummary::MeanService() const {
  std::vector<double> means(service_series_.size(), 0.0);
  for (std::size_t q = 0; q < service_series_.size(); ++q) {
    means[q] = Mean(service_series_[q]);
  }
  return means;
}

std::vector<double> PosteriorSummary::MeanWait() const {
  std::vector<double> means(wait_series_.size(), 0.0);
  for (std::size_t q = 0; q < wait_series_.size(); ++q) {
    means[q] = Mean(wait_series_[q]);
  }
  return means;
}

std::vector<double> PosteriorSummary::MeanTailResponse() const {
  std::vector<double> means(tail_series_.size(), 0.0);
  for (std::size_t q = 0; q < tail_series_.size(); ++q) {
    means[q] = Mean(tail_series_[q]);
  }
  return means;
}

std::vector<double> PosteriorSummary::ServiceQuantile(double q) const {
  std::vector<double> out(service_series_.size(), 0.0);
  for (std::size_t i = 0; i < service_series_.size(); ++i) {
    out[i] = Quantile(service_series_[i], q);
  }
  return out;
}

std::vector<double> PosteriorSummary::WaitQuantile(double q) const {
  std::vector<double> out(wait_series_.size(), 0.0);
  for (std::size_t i = 0; i < wait_series_.size(); ++i) {
    out[i] = Quantile(wait_series_[i], q);
  }
  return out;
}

std::vector<double> PosteriorSummary::RateDraw(std::size_t draw) const {
  QNET_CHECK(draw < num_samples_, "draw index ", draw, " out of range (", num_samples_,
             " accumulated sweeps)");
  std::vector<double> rates(service_series_.size(), 0.0);
  for (std::size_t q = 0; q < service_series_.size(); ++q) {
    const double mean_service = service_series_[q][draw];
    QNET_CHECK(mean_service > 0.0, "nonpositive mean service in draw ", draw, " queue ", q);
    rates[q] = 1.0 / mean_service;
  }
  return rates;
}

const std::vector<double>& PosteriorSummary::ServiceSeries(int queue) const {
  QNET_CHECK(queue >= 0 && static_cast<std::size_t>(queue) < service_series_.size(),
             "bad queue id");
  return service_series_[static_cast<std::size_t>(queue)];
}

const std::vector<double>& PosteriorSummary::WaitSeries(int queue) const {
  QNET_CHECK(queue >= 0 && static_cast<std::size_t>(queue) < wait_series_.size(),
             "bad queue id");
  return wait_series_[static_cast<std::size_t>(queue)];
}

}  // namespace qnet
