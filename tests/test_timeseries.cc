// obs/timeseries.h: the one window rule (boundary events, negative and NaN
// times, the clamp) and the flight recorder's per-run series built on it —
// runs shorter than one bucket, final partial buckets with zero gaps, kMax
// folds, first-touch order — plus the CSV/JSON exports.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/flight.h"
#include "obs/obs.h"

namespace dcn::obs {
namespace {

class TimeSeriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight::Disable();
    Reset();
  }
  void TearDown() override {
    flight::Disable();
    Reset();
  }
};

// Runs `body` inside one flight run whose series use `width`-wide buckets
// and returns the series it recorded. Links are named "link<id>".
std::vector<TimeSeriesRow> RecordRun(
    double width, const std::function<void(flight::Recorder&)>& body) {
  flight::Config config;
  config.bucket_width = width;
  flight::Enable(config);
  {
    flight::RunScope run{"ts", 100.0, 4, nullptr};
    body(*run.recorder());
  }
  return flight::TakeRunsSnapshot().at(0).series;
}

std::vector<std::int64_t> Buckets(const std::vector<TimeSeriesRow>& rows,
                                  const std::string& name) {
  for (const TimeSeriesRow& row : rows) {
    if (row.name == name) return row.buckets;
  }
  ADD_FAILURE() << "no series named " << name;
  return {};
}

TEST_F(TimeSeriesTest, WindowOfFloorsAndPutsBoundaryEventsInTheUpperWindow) {
  EXPECT_EQ(WindowOf(0.0, 10.0), 0u);
  EXPECT_EQ(WindowOf(9.999, 10.0), 0u);
  EXPECT_EQ(WindowOf(10.0, 10.0), 1u);
  EXPECT_EQ(WindowOf(19.999, 10.0), 1u);
  // Every monitor grid (at most 65536 windows) sees t = k*w in window k.
  for (const double width : {20.0, 25.0, 50.0, 100.0}) {
    for (std::uint32_t k = 0; k <= 65536; ++k) {
      ASSERT_EQ(WindowOf(k * width, width), k) << "width=" << width;
    }
  }
}

TEST_F(TimeSeriesTest, WindowOfMapsNegativeAndNanTimesToWindowZero) {
  EXPECT_EQ(WindowOf(-3.0, 10.0), 0u);
  EXPECT_EQ(WindowOf(-1e300, 10.0), 0u);
  EXPECT_EQ(WindowOf(-std::numeric_limits<double>::infinity(), 10.0), 0u);
  EXPECT_EQ(WindowOf(std::nan(""), 10.0), 0u);
}

TEST_F(TimeSeriesTest, WindowOfClampsHugeQuotients) {
  EXPECT_EQ(WindowOf(kMaxWindowIndex - 1.0, 1.0), kMaxWindowIndex - 1);
  EXPECT_EQ(WindowOf(kMaxWindowIndex, 1.0), kMaxWindowIndex);
  // Quotients of 2^32 and beyond clamp instead of wrapping.
  EXPECT_EQ(WindowOf(4294967296.0 + 5.0, 1.0), kMaxWindowIndex);
  EXPECT_EQ(WindowOf(1e300, 1.0), kMaxWindowIndex);
  EXPECT_EQ(WindowOf(std::numeric_limits<double>::infinity(), 1.0),
            kMaxWindowIndex);
}

TEST_F(TimeSeriesTest, BoundaryEventLandsInTheUpperBucket) {
  const auto rows = RecordRun(10.0, [](flight::Recorder& fr) {
    fr.LinkTransmit(0, 0.0);    // bucket 0: [0, 10)
    fr.LinkTransmit(0, 9.999);  // still bucket 0
    fr.LinkTransmit(0, 10.0);   // exactly on the boundary -> bucket 1
    fr.LinkTransmit(0, 10.0);
    fr.LinkTransmit(0, 19.999);
  });
  EXPECT_EQ(Buckets(rows, "run0/ts/tx/link0"),
            (std::vector<std::int64_t>{2, 3}));
}

TEST_F(TimeSeriesTest, RunShorterThanOneBucketYieldsOnePartialBucket) {
  const auto rows = RecordRun(100.0, [](flight::Recorder& fr) {
    fr.LinkTransmit(1, 1.0);
    fr.LinkTransmit(1, 42.5);
    fr.LinkTransmit(1, 99.0);
  });
  EXPECT_EQ(Buckets(rows, "run0/ts/tx/link1"), (std::vector<std::int64_t>{3}));
}

TEST_F(TimeSeriesTest, FinalPartialBucketIsKeptAndInteriorGapsReadZero) {
  const auto rows = RecordRun(10.0, [](flight::Recorder& fr) {
    fr.LinkTransmit(0, 5.0);
    fr.LinkTransmit(0, 25.0);  // horizon 25: final bucket [20, 30) is partial
  });
  EXPECT_EQ(Buckets(rows, "run0/ts/tx/link0"),
            (std::vector<std::int64_t>{1, 0, 1}));
}

TEST_F(TimeSeriesTest, NegativeTimeClampsToBucketZero) {
  const auto rows = RecordRun(10.0, [](flight::Recorder& fr) {
    fr.LinkTransmit(0, -3.0);
  });
  EXPECT_EQ(Buckets(rows, "run0/ts/tx/link0"), (std::vector<std::int64_t>{1}));
}

TEST_F(TimeSeriesTest, MaxSeriesKeepsTheBucketMaximum) {
  const auto rows = RecordRun(10.0, [](flight::Recorder& fr) {
    fr.InFlight(1.0, 3);
    fr.InFlight(2.0, 9);
    fr.InFlight(3.0, 4);
    fr.InFlight(11.0, 2);
    fr.LinkQueueDepth(2, 1.0, 5);
    fr.LinkQueueDepth(2, 2.0, 1);
  });
  EXPECT_EQ(Buckets(rows, "run0/ts/in_flight"),
            (std::vector<std::int64_t>{9, 2}));
  EXPECT_EQ(Buckets(rows, "run0/ts/queue_depth/link2"),
            (std::vector<std::int64_t>{5}));
  for (const TimeSeriesRow& row : rows) {
    EXPECT_EQ(row.kind, SeriesKind::kMax) << row.name;
    EXPECT_EQ(row.bucket_width, 10.0) << row.name;
  }
}

TEST_F(TimeSeriesTest, SeriesComeOutInFirstTouchOrder) {
  const auto rows = RecordRun(1.0, [](flight::Recorder& fr) {
    fr.LinkTransmit(3, 0.0);
    fr.InFlight(0.0, 1);
    fr.LinkTransmit(1, 0.0);
    fr.LinkTransmit(3, 1.0);
  });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "run0/ts/tx/link3");
  EXPECT_EQ(rows[1].name, "run0/ts/in_flight");
  EXPECT_EQ(rows[2].name, "run0/ts/tx/link1");
}

TEST_F(TimeSeriesTest, NoBucketWidthRecordsNoSeries) {
  const auto rows = RecordRun(0.0, [](flight::Recorder& fr) {
    EXPECT_FALSE(fr.TimeSeriesOn());
    fr.LinkTransmit(0, 1.0);
    fr.InFlight(1.0, 1);
  });
  EXPECT_TRUE(rows.empty());
  flight::Config negative;
  negative.bucket_width = -1.0;
  EXPECT_THROW(flight::Enable(negative), InvalidArgument);
}

TEST_F(TimeSeriesTest, CsvAndJsonExports) {
  const std::vector<TimeSeriesRow> rows{
      {"ts/csv", SeriesKind::kSum, 10.0, {0, 4}},
      {"ts/empty", SeriesKind::kSum, 10.0, {}},  // no data: skipped
      {"ts/a,\"b", SeriesKind::kMax, 1.0, {7}},
  };

  std::ostringstream csv;
  WriteTimeSeriesCsv(csv, rows);
  EXPECT_EQ(csv.str(),
            "series,kind,bucket_width,bucket,t_start,value\n"
            "ts/csv,sum,10,0,0,0\n"
            "ts/csv,sum,10,1,10,4\n"
            "\"ts/a,\"\"b\",max,1,0,0,7\n");

  std::ostringstream json;
  WriteTimeSeriesJson(json, rows);
  EXPECT_EQ(json.str(),
            "{\"series\": [\n"
            "  {\"name\": \"ts/csv\", \"kind\": \"sum\", \"bucket_width\": 10, "
            "\"buckets\": [0, 4]},\n"
            "  {\"name\": \"ts/a,\\\"b\", \"kind\": \"max\", "
            "\"bucket_width\": 1, \"buckets\": [7]}\n"
            "]}\n");
}

}  // namespace
}  // namespace dcn::obs
