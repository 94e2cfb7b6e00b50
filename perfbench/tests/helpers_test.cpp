// Tests of the benchmark's own helpers: percentile selection, span self
// time, generator lateness, backlog detection and failure classification.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "classify.hpp"
#include "openloop.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = ramp(100);
  EXPECT_EQ(percentile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(percentile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(percentile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(percentile_sorted(std::vector<double>{}, 0.5), 0.0);
}

TEST(Percentile, TenBeyondRule) {
  // p99 of 1000 samples is rank 990: exactly ten samples lie beyond it.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10U);
  EXPECT_TRUE(tail_reportable(1000, 0.99));
  EXPECT_FALSE(tail_reportable(999, 0.99));
  EXPECT_TRUE(tail_reportable(100, 0.9));
  EXPECT_FALSE(tail_reportable(99, 0.9));
}

TEST(Percentile, TailFallsBackDownTheLadder) {
  const auto p99 = tail_percentile(ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->quantile, 0.99);
  EXPECT_EQ(p99->value, 990.0);

  // 500 samples: p99 has 5 beyond, p95 has 25 beyond.
  const auto p95 = tail_percentile(ramp(500), 0.99);
  ASSERT_TRUE(p95.has_value());
  EXPECT_EQ(p95->quantile, 0.95);
  EXPECT_EQ(p95->value, 475.0);

  // Never above the requested percentile.
  const auto p90 = tail_percentile(ramp(100000), 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->quantile, 0.9);

  // Ten samples: not even the median has ten beyond it.
  EXPECT_FALSE(tail_percentile(ramp(10), 0.99).has_value());
  EXPECT_TRUE(tail_percentile(ramp(21), 0.99).has_value());
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span make(std::uint32_t id, std::uint32_t parent, std::uint64_t start,
          std::uint64_t end) {
  Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsDisjointChildren) {
  const std::vector<Span> spans = {make(1, 0, 0, 100), make(2, 1, 10, 30),
                                   make(3, 1, 50, 60)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 70U);
  EXPECT_EQ(self[1], 20U);
  EXPECT_EQ(self[2], 10U);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two pool tasks running at once under one parent: their union, not
  // their sum, is subtracted.
  const std::vector<Span> spans = {make(1, 0, 0, 100), make(2, 1, 10, 60),
                                   make(3, 1, 40, 80), make(4, 1, 45, 50)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 30U);  // 100 - |[10, 80)|
}

TEST(SelfTime, ChildrenClippedToParentAndGrandchildrenIgnored) {
  const std::vector<Span> spans = {make(1, 0, 100, 200), make(2, 1, 50, 150),
                                   make(3, 2, 60, 140), make(4, 1, 190, 250)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 40U);  // covered: [100,150) and [190,200)
  EXPECT_EQ(self[1], 20U);  // 100 - 80
  EXPECT_EQ(self[2], 80U);
  EXPECT_EQ(self[3], 60U);
}

TEST(SelfTime, RecorderAggregatesByName) {
  SpanRecorder rec;
  const std::uint32_t root = rec.open();
  rec.leaf("leaf", root, 10, 40);
  rec.leaf("leaf", root, 50, 60);
  rec.record("root", root, 0, 0, 100);
  const auto self = rec.self_by_name();
  EXPECT_EQ(self.at("root"), 60U);
  EXPECT_EQ(self.at("leaf"), 40U);
  EXPECT_EQ(rec.duration_by_name().at("leaf").second, 2U);
}

std::vector<std::uint64_t> schedule(std::uint64_t seed) {
  std::vector<std::uint64_t> due(20000);
  poisson_fill(seed, 10000.0, due.data(), due.size());
  return due;
}

TEST(OpenLoop, ScheduleIsSeededAndAtTheRate) {
  const auto a = schedule(42);
  const auto b = schedule(42);
  const auto c = schedule(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // 20000 arrivals at 10k/s span about two seconds.
  EXPECT_NEAR(static_cast<double>(a.back()) * 1e-9, 2.0, 0.1);
}

TEST(OpenLoop, LatenessCountsFromDueTime) {
  std::vector<std::uint64_t> due(1000);
  std::vector<std::uint64_t> sent(1000);
  for (std::size_t i = 0; i < due.size(); ++i) {
    due[i] = 1000 + i * 1000;
    sent[i] = due[i] + (i < 980 ? 0 : 50'000);  // the last 20 ran 50 us late
  }
  sent[3] = due[3] - 500;  // early sends are not negative lateness
  const Lateness l = lateness(due, sent);
  EXPECT_EQ(l.sent, 1000U);
  EXPECT_EQ(l.unsent, 0U);
  EXPECT_EQ(l.p50_us, 0.0);
  EXPECT_EQ(l.p99_us, 50.0);
  EXPECT_EQ(l.max_us, 50.0);
}

TEST(OpenLoop, UnsentRequestsAreCountedNotTimed) {
  const std::vector<std::uint64_t> due = {10, 20, 30, 40};
  const std::vector<std::uint64_t> sent = {10, 0, 2030, 0};
  const Lateness l = lateness(due, sent);
  EXPECT_EQ(l.sent, 2U);
  EXPECT_EQ(l.unsent, 2U);
  EXPECT_EQ(l.max_us, 2.0);
}

TEST(OpenLoop, WindowedPercentilesShrugOffOneStalledWindow) {
  // 8000 requests at 10 us, except one window of 1000 stalled at 5 ms.
  std::vector<double> rtt(8000, 10.0);
  for (std::size_t i = 3000; i < 4000; ++i) {
    rtt[i] = 5000.0;
  }
  const Windowed w = windowed_percentiles(rtt, 8);
  EXPECT_EQ(w.windows, 8U);
  EXPECT_EQ(w.p50, 10.0);
  EXPECT_EQ(w.p99, 10.0);
  // Windows never drop below 1000 samples, so each window's p99 has ten
  // samples beyond it: 2500 samples make 2 windows.
  const Windowed few = windowed_percentiles(std::vector<double>(2500, 1.0), 8);
  EXPECT_EQ(few.windows, 2U);
  EXPECT_EQ(windowed_percentiles({}, 8).windows, 0U);
}

TEST(OpenLoop, BacklogGrowth) {
  EXPECT_FALSE(backlog_growing({3, 5, 4, 6, 5, 4, 6, 5}, 64));
  EXPECT_TRUE(backlog_growing({3, 50, 200, 400, 800, 1600, 3200, 6400}, 64));
  // Growth smaller than the slack is jitter, not a backlog.
  EXPECT_FALSE(backlog_growing({1, 2, 3, 4, 5, 6, 7, 30}, 64));
  EXPECT_FALSE(backlog_growing({}, 64));
}

TEST(Classify, CorrectRejectionsAreNotFailures) {
  using pufaging::auth::AuthDecision;
  using pufaging::authd::AuthResponseMsg;
  using pufaging::authd::ResponseStatus;
  AuthResponseMsg r;
  r.status = ResponseStatus::kDecision;
  r.decision = static_cast<std::uint8_t>(AuthDecision::kRejectDecode);
  // An aged genuine read the oracle also rejects: correct.
  EXPECT_EQ(classify(r, AuthDecision::kRejectDecode), Outcome::kCorrect);
  EXPECT_FALSE(is_failure(classify(r, AuthDecision::kRejectDecode)));
  r.decision = static_cast<std::uint8_t>(AuthDecision::kRejectKey);
  EXPECT_FALSE(is_failure(classify(r, AuthDecision::kRejectKey)));
  // A decision differing from the oracle is a failure either way.
  EXPECT_EQ(classify(r, AuthDecision::kAccept), Outcome::kWrongDecision);
  r.decision = static_cast<std::uint8_t>(AuthDecision::kAccept);
  EXPECT_TRUE(is_failure(classify(r, AuthDecision::kRejectKey)));
  EXPECT_FALSE(is_failure(classify(r, AuthDecision::kAccept)));
}

TEST(Classify, RefusalsAreFailures) {
  using pufaging::auth::AuthDecision;
  using pufaging::authd::AuthResponseMsg;
  using pufaging::authd::ResponseStatus;
  for (ResponseStatus s :
       {ResponseStatus::kRetryAfter, ResponseStatus::kShed,
        ResponseStatus::kDeadline, ResponseStatus::kLockedOut,
        ResponseStatus::kRateLimited, ResponseStatus::kDraining}) {
    AuthResponseMsg r;
    r.status = s;
    EXPECT_EQ(classify(r, AuthDecision::kAccept), Outcome::kRefused);
    EXPECT_TRUE(is_failure(Outcome::kRefused));
  }
  EXPECT_TRUE(is_failure(Outcome::kUnanswered));
  EXPECT_EQ(fail_frac(0, 0), 0.0);
  EXPECT_EQ(fail_frac(1, 4), 0.25);
}

}  // namespace
}  // namespace perfbench
