// Replay TraceStream backends over recorded logs (the `trace/` layer of the streaming
// engine).
//
// LogReplayStream wraps an in-memory EventLog + Observation and yields its tasks in task
// (= entry-time) order — how a batch log runs through the streaming engine.
//
// CsvReplayStream reads a WriteEventLog CSV *incrementally*, one task at a time, so a
// multi-gigabyte trace streams through the streaming estimator in bounded memory. The
// network size comes from the `# queues=N` header WriteEventLog emits; headerless legacy
// files pass num_queues explicitly. An optional observation CSV (WriteObservation
// format) is consumed in lockstep — its rows are in event-id order, which is exactly the
// log's row order — marking which times are observed; without it the replay is fully
// observed.

#ifndef QNET_STREAM_REPLAY_STREAM_H_
#define QNET_STREAM_REPLAY_STREAM_H_

#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <string>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/stream/task_record.h"

namespace qnet {

class LogReplayStream : public TraceStream {
 public:
  // Both referents must outlive the stream.
  LogReplayStream(const EventLog& log, const Observation& obs);

  bool Next(TaskRecord& out) override;
  int NumQueues() const override { return log_->NumQueues(); }

 private:
  const EventLog* log_;
  const Observation* obs_;
  int next_task_ = 0;
};

class CsvReplayStream : public TraceStream {
 public:
  // Reads from caller-owned streams (must outlive this object). num_queues == -1
  // requires the `# queues=N` header; a nonnegative value overrides/permits headerless
  // files (and is checked against the header when both are present).
  explicit CsvReplayStream(std::istream& log_is, int num_queues = -1,
                           std::istream* obs_is = nullptr);
  // File variants: the streams are opened and owned here.
  explicit CsvReplayStream(const std::string& log_path, int num_queues = -1);
  CsvReplayStream(const std::string& log_path, const std::string& obs_path, int num_queues = -1);

  bool Next(TaskRecord& out) override;
  int NumQueues() const override { return num_queues_; }

 private:
  void Init();
  // Reads the next non-empty log row into fields_; false at EOF.
  bool NextLogRow();
  // Consumes the observation row for the current event id (if an obs stream is attached)
  // and returns its (arrival_observed, departure_observed) flags.
  std::pair<bool, bool> NextObsFlags();

  std::unique_ptr<std::ifstream> owned_log_;
  std::unique_ptr<std::ifstream> owned_obs_;
  std::istream* log_is_;
  std::istream* obs_is_;
  int num_queues_;

  std::string line_;
  std::vector<std::string> fields_;  // current log row, split
  std::string obs_line_;
  std::vector<std::string> obs_fields_;
  bool have_buffered_row_ = false;   // fields_ holds the next task's initial row
  long next_event_id_ = 0;
  int next_task_ = 0;
};

}  // namespace qnet

#endif  // QNET_STREAM_REPLAY_STREAM_H_
