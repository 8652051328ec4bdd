// Tests of the benchmark's own helpers: sample statistics, the Eq. 11
// oracle, and the parsers the daemon_plan checks rely on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "http_client.hpp"
#include "json_lite.hpp"
#include "oracle.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 1.75);  // statistics "inclusive"
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, RejectsEmptySampleAndBadQuantile) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -0.1), std::invalid_argument);
}

TEST(SampleCount, SamplesBeyondQuantile) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(40, 0.75), 10u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(SampleCount, ReportableTailNeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(reportable_tail(5000), 0.99);
  EXPECT_DOUBLE_EQ(reportable_tail(1000), 0.99);
  EXPECT_DOUBLE_EQ(reportable_tail(999), 0.9);
  EXPECT_DOUBLE_EQ(reportable_tail(100), 0.9);
  EXPECT_DOUBLE_EQ(reportable_tail(40), 0.75);
  EXPECT_DOUBLE_EQ(reportable_tail(39), 0.5);  // the median alone
  EXPECT_DOUBLE_EQ(reportable_tail(3), 0.5);
}

TEST(SpanTable, SelfTimeExcludesChildren) {
  SpanTable t;
  {
    Span outer(&t, "outer");
    {
      Span inner(&t, "inner");
      const double until = now_s() + 0.01;
      while (now_s() < until) {
      }
    }
  }
  EXPECT_EQ(t.calls("outer"), 1u);
  EXPECT_EQ(t.calls("inner"), 1u);
  EXPECT_GE(t.self_s("inner"), 0.01);
  EXPECT_LT(t.self_s("outer"), t.self_s("inner"));
  EXPECT_EQ(t.calls("absent"), 0u);
}

TEST(SetupBlocks, TimesEveryCallOncePerBlock) {
  int calls = 0;
  const std::vector<double> per_call =
      perfbench::time_setup_blocks(3, 4, [&] { ++calls; });
  EXPECT_EQ(calls, 12);
  ASSERT_EQ(per_call.size(), 3u);
  for (const double t : per_call) EXPECT_GE(t, 0.0);
}

TEST(ProcessCpu, GrowsWithWork) {
  const double before = perfbench::process_cpu_s(::getpid());
  ASSERT_GE(before, 0.0);
  volatile double x = 0.0;
  const double until = perfbench::now_s() + 0.1;
  while (perfbench::now_s() < until) x = x + 1.0;
  EXPECT_GT(perfbench::process_cpu_s(::getpid()), before);
  EXPECT_LT(perfbench::process_cpu_s(-1), 0.0);
}

TEST(ResultJson, HasExactlyTheResultKeys) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.add("run_s", 1.25, "s");
  const JsonValue doc = JsonValue::parse(result_json(r));
  EXPECT_TRUE(doc.at("correct").boolean());
  EXPECT_EQ(doc.at("attempted").number(), 3.0);
  EXPECT_EQ(doc.at("failed").number(), 1.0);
  EXPECT_EQ(doc.at("metrics").at("run_s").at("value").number(), 1.25);
  EXPECT_EQ(doc.at("metrics").at("run_s").at("unit").string(), "s");
  r.check(false, "broken");
  EXPECT_FALSE(JsonValue::parse(result_json(r)).at("correct").boolean());
}

TEST(Eq11Oracle, ApproachesYoungWhenFailuresAreRare) {
  // lambda * C = 1e-4: Young's sqrt(2C/lambda) is the first-order optimum.
  for (const double cost : {10.0, 50.0, 100.0}) {
    const double lambda = 1e-4 / cost;
    const OracleOptimum o =
        eq11_exponential_optimum(lambda, cost, cost, 1.0, 1e9);
    const double young = young_interval(lambda, cost);
    EXPECT_NEAR(o.work / young, 1.0, 0.02) << "C=" << cost;
  }
}

TEST(Eq11Oracle, GammaLimits) {
  // No failures: one interval costs exactly C + T.
  EXPECT_NEAR(eq11_exponential_gamma(1e-15, 100.0, 100.0, 1000.0), 1100.0,
              1e-6);
  // Gamma grows with the failure rate.
  EXPECT_GT(eq11_exponential_gamma(1e-3, 100.0, 100.0, 1000.0),
            eq11_exponential_gamma(1e-4, 100.0, 100.0, 1000.0));
}

TEST(Eq11Oracle, OptimumIsAMinimum) {
  const double lambda = 1.0 / 3600.0;
  const double cost = 300.0;
  const OracleOptimum o =
      eq11_exponential_optimum(lambda, cost, cost, 1.0, 7 * 86400.0);
  const auto ratio = [&](double t) {
    return eq11_exponential_gamma(lambda, cost, cost, t) / t;
  };
  EXPECT_NEAR(ratio(o.work), o.ratio, 1e-12 * o.ratio);
  EXPECT_LT(o.ratio, ratio(o.work * 1.01));
  EXPECT_LT(o.ratio, ratio(o.work * 0.99));
}

TEST(Prometheus, ReadsUnlabelledSamples) {
  const std::string text =
      "# HELP plan_http_requests_total GET /plan requests served.\n"
      "# TYPE plan_http_requests_total counter\n"
      "plan_http_requests_total 42\n"
      "plan_http_requests_total_rate 1.5\n"
      "plan_cache_hits_total{shard=\"0\"} 7\n"
      "plan_cache_hits_total 9\n";
  double v = 0.0;
  ASSERT_TRUE(prometheus_value(text, "plan_http_requests_total", v));
  EXPECT_EQ(v, 42.0);
  ASSERT_TRUE(prometheus_value(text, "plan_cache_hits_total", v));
  EXPECT_EQ(v, 9.0);
  EXPECT_FALSE(prometheus_value(text, "plan_refits_total", v));
  EXPECT_EQ(prometheus_samples(text), 4u);
}

TEST(Json, ParsesPlanDocuments) {
  const JsonValue doc = JsonValue::parse(
      R"({"machine":"m0001","status":"ok","params":[0.43,3409],)"
      R"("predictor":{"recall":0.7,"window_s":1.8e3,"period_factor":1.5},)"
      R"("cache":{"hit":true},"schedule":[{"work_s":12.5,"age_s":0}],)"
      R"("note":"a \"quoted\" A","nothing":null})");
  EXPECT_EQ(doc.at("status").string(), "ok");
  EXPECT_EQ(doc.at("params").array().size(), 2u);
  EXPECT_EQ(doc.at("predictor").at("window_s").number(), 1800.0);
  EXPECT_TRUE(doc.at("cache").at("hit").boolean());
  EXPECT_EQ(doc.at("schedule").array()[0].at("work_s").number(), 12.5);
  EXPECT_EQ(doc.at("note").string(), "a \"quoted\" A");
  EXPECT_FALSE(doc.has("absent"));
  EXPECT_THROW((void)doc.at("absent"), std::runtime_error);
  EXPECT_THROW((void)doc.at("status").number(), std::runtime_error);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "nan",
                          "\"open", "{\"a\" 1}", "0x10", "-inf"}) {
    EXPECT_THROW((void)JsonValue::parse(bad), std::runtime_error) << bad;
  }
}

TEST(HttpResponse, ParsesStatusAndBody) {
  const HttpReply r = parse_http_response(
      "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nok\n");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
  EXPECT_FALSE(parse_http_response("garbage").ok);
  EXPECT_FALSE(parse_http_response("HTTP/1.0 200 OK\r\n").ok);
}

}  // namespace
}  // namespace perfbench
