// Tests for the remaining support utilities: command-line flags, contract macros, the
// stopwatch, and the stream-partitioning task hash.

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/stream/task_record.h"
#include "qnet/support/check.h"
#include "qnet/support/flags.h"
#include "qnet/support/rng.h"
#include "qnet/support/stopwatch.h"
#include "qnet/support/task_hash.h"

namespace qnet {
namespace {

Flags MakeFlags(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  return Flags(static_cast<int>(args.size()), args.data());
}

TEST(Flags, ParsesEqualsAndSpaceSeparatedValues) {
  const Flags flags = MakeFlags({"--tasks=100", "--rate", "2.5", "--name", "web"});
  EXPECT_EQ(flags.GetInt("tasks", 0), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 2.5);
  EXPECT_EQ(flags.GetString("name", ""), "web");
  EXPECT_TRUE(flags.Has("tasks"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(Flags, BareSwitchesAreBooleanTrue) {
  const Flags flags = MakeFlags({"--verbose", "--dry-run", "--count=3"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.GetBool("dry-run", false));
  EXPECT_FALSE(flags.GetBool("other", false));
  EXPECT_TRUE(flags.GetBool("other", true));
  EXPECT_EQ(flags.GetInt("count", 0), 3);
}

TEST(Flags, SwitchFollowedByFlagDoesNotSwallowIt) {
  const Flags flags = MakeFlags({"--fast", "--tasks", "7"});
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_EQ(flags.GetInt("tasks", 0), 7);
}

TEST(Flags, PositionalArgumentsPreserved) {
  const Flags flags = MakeFlags({"input.csv", "--n=1", "output.csv"});
  ASSERT_EQ(flags.Positional().size(), 2u);
  EXPECT_EQ(flags.Positional()[0], "input.csv");
  EXPECT_EQ(flags.Positional()[1], "output.csv");
}

TEST(Flags, DefaultsWhenAbsentAndTypeGuards) {
  const Flags flags = MakeFlags({"--text", "abc"});
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_THROW(flags.GetInt("text", 0), Error);
  EXPECT_THROW(flags.GetDouble("text", 0.0), Error);
}

TEST(Flags, BooleanSpellings) {
  const Flags flags = MakeFlags({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
}

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    QNET_CHECK(1 == 2, "context ", 42);
    FAIL() << "QNET_CHECK did not throw";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("test_support_misc"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(QNET_CHECK(true));
  EXPECT_NO_THROW(QNET_CHECK(2 > 1, "never shown"));
}

TEST(Check, MessageIsLazy) {
  // The message expression must not be evaluated when the condition holds.
  int evaluations = 0;
  const auto side_effect = [&]() {
    ++evaluations;
    return "msg";
  };
  QNET_CHECK(true, side_effect());
  // The current implementation builds the message eagerly inside the failure branch only.
  EXPECT_EQ(evaluations, 0);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double first = watch.ElapsedMillis();
  EXPECT_GE(first, 15.0);
  EXPECT_LT(first, 2000.0);
  watch.Reset();
  EXPECT_LT(watch.ElapsedMillis(), first);
  EXPECT_NEAR(watch.ElapsedSeconds() * 1e3, watch.ElapsedMillis(), 5.0);
}

// --- TaskHash ----------------------------------------------------------------------------

TaskRecord HashFixtureRecord(double entry = 1.5, int visits = 2) {
  TaskRecord record;
  record.entry_time = entry;
  double t = entry;
  for (int i = 0; i < visits; ++i) {
    TaskVisit visit;
    visit.state = i;
    visit.queue = i + 1;
    visit.arrival = t;
    t += 0.25;
    visit.departure = t;
    record.visits.push_back(visit);
  }
  return record;
}

TEST(TaskHash, GoldenValuesPinCrossPlatformStability) {
  // The hash is pure 64-bit integer arithmetic over IEEE-754 bit patterns, so these
  // values must reproduce on every platform and standard library. A change here breaks
  // every external partitioner's placement — bump deliberately or never. These are the
  // contract-version-2 values (four accumulators; see task_hash.h).
  EXPECT_EQ(TaskHash(HashFixtureRecord()), 0x32d6a944302b6b5aULL);
  EXPECT_EQ(TaskHash(HashFixtureRecord(2.5)), 0xdd0369815774a200ULL);
  EXPECT_EQ(TaskHash(HashFixtureRecord(1.5, 3)), 0xb3e3eb4ee3414c1cULL);
  EXPECT_EQ(TaskLane(TaskHash(HashFixtureRecord()), 4), 0u);
}

TEST(TaskHash, IgnoresObservationFlagsAndNegativeZero) {
  TaskRecord record = HashFixtureRecord();
  const std::uint64_t base = TaskHash(record);
  record.visits[0].arrival_observed = false;
  record.visits[1].departure_observed = false;
  EXPECT_EQ(TaskHash(record), base) << "observation flags are telemetry, not identity";

  TaskRecord zero = HashFixtureRecord(0.0);
  TaskRecord negative_zero = HashFixtureRecord(0.0);
  negative_zero.entry_time = -0.0;
  EXPECT_EQ(TaskHash(zero), TaskHash(negative_zero));
}

TEST(TaskHash, SensitiveToEveryIdentityField) {
  const std::uint64_t base = TaskHash(HashFixtureRecord());
  TaskRecord record = HashFixtureRecord();
  record.entry_time += 1e-9;
  EXPECT_NE(TaskHash(record), base);
  record = HashFixtureRecord();
  record.visits[1].queue = 3;
  EXPECT_NE(TaskHash(record), base);
  record = HashFixtureRecord();
  record.visits[0].state = 7;
  EXPECT_NE(TaskHash(record), base);
  record = HashFixtureRecord();
  record.visits[1].departure += 1e-12;
  EXPECT_NE(TaskHash(record), base);
  record = HashFixtureRecord();
  record.visits.pop_back();
  EXPECT_NE(TaskHash(record), base);
}

TEST(TaskHash, AvalanchesOnSingleBitEntryTimeFlips) {
  // Flipping one bit of the entry time must flip about half the output bits — the
  // property that makes low-entropy inputs (regular timestamps) spread uniformly.
  double total_flips = 0.0;
  int samples = 0;
  for (const double entry : {1.5, 1000.25, 3.0e5}) {
    const TaskRecord base_record = HashFixtureRecord(entry);
    const std::uint64_t base_hash = TaskHash(base_record);
    for (const int bit : {0, 7, 21, 36, 51}) {
      TaskRecord flipped = base_record;
      flipped.entry_time = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(entry) ^ (std::uint64_t{1} << bit));
      total_flips += std::popcount(base_hash ^ TaskHash(flipped));
      ++samples;
    }
  }
  const double mean_flips = total_flips / samples;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(TaskHash, AvalanchesOnSingleBitVisitTimeFlips) {
  // The same property for words that land in every accumulator: each visit's arrival and
  // departure of a 3-visit record (words 3..10, so all four accumulators are hit).
  double total_flips = 0.0;
  int samples = 0;
  for (const double entry : {1.5, 1000.25, 3.0e5}) {
    const TaskRecord base_record = HashFixtureRecord(entry, 3);
    const std::uint64_t base_hash = TaskHash(base_record);
    for (std::size_t v = 0; v < base_record.visits.size(); ++v) {
      for (const bool arrival : {true, false}) {
        for (const int bit : {0, 7, 21, 36, 51, 63}) {
          TaskRecord flipped = base_record;
          double& time =
              arrival ? flipped.visits[v].arrival : flipped.visits[v].departure;
          time = std::bit_cast<double>(std::bit_cast<std::uint64_t>(time) ^
                                       (std::uint64_t{1} << bit));
          total_flips += std::popcount(base_hash ^ TaskHash(flipped));
          ++samples;
        }
      }
    }
  }
  const double mean_flips = total_flips / samples;
  EXPECT_GT(mean_flips, 28.0);
  EXPECT_LT(mean_flips, 36.0);
}

TEST(TaskHash, SpreadsUniformlyAcrossLaneCounts) {
  // 4000 Poisson-ish synthetic tasks: every lane count gets close to its fair share,
  // and the lane of a record is stable regardless of which lane count others use.
  Rng rng(11);
  std::vector<TaskRecord> records;
  double t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    t += rng.Exponential(10.0);
    TaskRecord record = HashFixtureRecord(t);
    record.visits[0].departure = t + rng.Exponential(40.0);
    records.push_back(record);
  }
  for (const std::size_t lanes : {2u, 3u, 4u, 8u}) {
    std::vector<std::size_t> counts(lanes, 0);
    for (const TaskRecord& record : records) {
      ++counts[TaskLane(TaskHash(record), lanes)];
    }
    const double fair = 4000.0 / static_cast<double>(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      EXPECT_GT(static_cast<double>(counts[lane]), 0.75 * fair)
          << "lanes=" << lanes << " lane=" << lane;
      EXPECT_LT(static_cast<double>(counts[lane]), 1.25 * fair)
          << "lanes=" << lanes << " lane=" << lane;
    }
  }
}

TEST(TaskLane, CoversRangeAndRejectsZeroLanes) {
  EXPECT_EQ(TaskLane(0, 1), 0u);
  EXPECT_EQ(TaskLane(~std::uint64_t{0}, 1), 0u);
  EXPECT_EQ(TaskLane(~std::uint64_t{0}, 8), 7u);
  EXPECT_EQ(TaskLane(0, 8), 0u);
  EXPECT_THROW(TaskLane(123, 0), Error);
}

}  // namespace
}  // namespace qnet
