// Tests for the metrics registry (src/support/metrics.hpp) and the
// deterministic JSON helpers (src/support/json.hpp) the journal rides on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/search/search.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"
#include "src/support/rng.hpp"

namespace automap {
namespace {

TEST(Metrics, CountersGaugesAndHistogramsHoldValues) {
  MetricsRegistry registry;
  Counter* c = registry.counter("automap_test_total", "a counter");
  c->inc();
  c->inc(41);
  EXPECT_EQ(c->value(), 42u);

  Gauge* g = registry.gauge("automap_test_gauge", "a gauge");
  g->set(2.5);
  EXPECT_EQ(g->value(), 2.5);

  Histogram* h = registry.histogram("automap_test_seconds", "a histogram",
                                    {0.1, 1.0, 10.0});
  h->observe(0.05);
  h->observe(0.5);
  h->observe(5.0);
  h->observe(50.0);  // overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 55.55);
  EXPECT_EQ(h->cumulative(0), 1u);   // <= 0.1
  EXPECT_EQ(h->cumulative(1), 2u);   // <= 1.0
  EXPECT_EQ(h->cumulative(2), 3u);   // <= 10.0
  EXPECT_EQ(h->cumulative(3), 4u);   // +Inf
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry registry;
  Counter* a = registry.counter("automap_dup_total", "first");
  Counter* b = registry.counter("automap_dup_total", "second");
  EXPECT_EQ(a, b);  // same entry, not a duplicate
  EXPECT_THROW(registry.gauge("automap_dup_total", "kind clash"), Error);
  EXPECT_THROW(registry.histogram("automap_bad", "unsorted", {2.0, 1.0}),
               Error);
}

TEST(Metrics, ExposeRendersPrometheusText) {
  MetricsRegistry registry;
  registry.counter("automap_runs_total", "Runs")->inc(3);
  registry.gauge("automap_best_seconds", "Best")->set(0.25);
  Histogram* h =
      registry.histogram("automap_lat_seconds", "Latency", {0.5, 1.0});
  h->observe(0.2);
  h->observe(2.0);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("# HELP automap_runs_total Runs"), std::string::npos);
  EXPECT_NE(text.find("# TYPE automap_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("automap_runs_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE automap_best_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("automap_lat_seconds_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("automap_lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("automap_lat_seconds_count 2"), std::string::npos);
  // Insertion order is preserved: counters registered first render first.
  EXPECT_LT(text.find("automap_runs_total"),
            text.find("automap_best_seconds"));
}

TEST(Metrics, SnapshotJsonSkipsNonDeterministicSeries) {
  MetricsRegistry registry;
  registry.counter("automap_det_total", "deterministic")->inc(7);
  registry
      .counter("automap_pool_total", "thread-dependent",
               /*deterministic=*/false)
      ->inc(9);
  registry.gauge("automap_level", "level")->set(1.5);
  registry.histogram("automap_h_seconds", "histogram", {1.0})->observe(0.5);
  const std::string snapshot = registry.snapshot_json();
  const JsonValue parsed = parse_json(snapshot);
  EXPECT_EQ(parsed.num_or("automap_det_total", -1), 7.0);
  EXPECT_EQ(parsed.num_or("automap_level", -1), 1.5);
  EXPECT_FALSE(parsed.has("automap_pool_total"));  // deterministic=false
  EXPECT_FALSE(parsed.has("automap_h_seconds"));   // histograms excluded
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(Metrics, QuantileInterpolatesWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  // 4 observations in (0,1], 4 in (1,2], 2 in (2,4]: every rank below is
  // hand-computable against the linear-within-bucket model.
  for (int i = 0; i < 4; ++i) h.observe(0.5);
  for (int i = 0; i < 4; ++i) h.observe(1.5);
  for (int i = 0; i < 2; ++i) h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);   // first bucket's lower edge
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.25);  // rank 5: 1/4 into (1,2]
  EXPECT_DOUBLE_EQ(h.quantile(0.8), 2.0);   // rank 8: exactly a bucket edge
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 3.5);  // rank 9.5: 3/4 into (2,4]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);   // top of the last bucket
  EXPECT_THROW({ (void)h.quantile(-0.1); }, Error);
  EXPECT_THROW({ (void)h.quantile(1.5); }, Error);
}

TEST(Metrics, QuantileEdgeCases) {
  Histogram empty({1.0});
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));

  // Everything in the +Inf overflow bucket clamps to the highest finite
  // bound — the honest "beyond what the buckets resolve" answer.
  Histogram overflow({1.0, 2.0});
  overflow.observe(5.0);
  overflow.observe(6.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 2.0);

  // A bound-less histogram has no shape to interpolate: the mean stands in.
  Histogram boundless{std::vector<double>{}};
  boundless.observe(2.0);
  boundless.observe(4.0);
  EXPECT_DOUBLE_EQ(boundless.quantile(0.5), 3.0);
}

TEST(Metrics, ExposeRendersLabeledFamilies) {
  MetricsRegistry registry;
  registry.counter("automap_op_errors_total{op=\"submit\"}", "Errors")
      ->inc(2);
  registry.counter("automap_op_errors_total{op=\"cancel\"}", "Errors")
      ->inc(1);
  Histogram* h = registry.histogram("automap_handle_seconds{op=\"submit\"}",
                                    "Handle latency", {0.5});
  h->observe(0.1);
  h->observe(0.7);
  const std::string text = registry.expose();

  // One # HELP / # TYPE block per family, shared by the labeled series.
  EXPECT_EQ(occurrences(text, "# TYPE automap_op_errors_total counter"), 1u);
  EXPECT_EQ(occurrences(text, "# HELP automap_op_errors_total"), 1u);
  EXPECT_NE(text.find("automap_op_errors_total{op=\"submit\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("automap_op_errors_total{op=\"cancel\"} 1"),
            std::string::npos);
  // Histogram suffixes splice before the label set, `le` inside the same
  // braces as the instrument's own labels.
  EXPECT_NE(
      text.find("automap_handle_seconds_bucket{op=\"submit\",le=\"0.5\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("automap_handle_seconds_bucket{op=\"submit\",le=\"+Inf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("automap_handle_seconds_count{op=\"submit\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("automap_handle_seconds_sum{op=\"submit\"} "),
            std::string::npos);
}

TEST(Metrics, QuantilesJsonListsNonEmptyHistograms) {
  MetricsRegistry registry;
  registry.histogram("automap_idle_seconds", "never observed", {1.0});
  Histogram* h = registry.histogram("automap_busy_seconds", "observed",
                                    {1.0, 2.0}, /*deterministic=*/false);
  h->observe(0.5);
  h->observe(0.5);
  h->observe(1.5);
  h->observe(1.5);
  const JsonValue parsed = parse_json(registry.quantiles_json());
  EXPECT_FALSE(parsed.has("automap_idle_seconds"));
  const JsonValue* busy = parsed.find("automap_busy_seconds");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->num_or("count", -1), 4.0);
  EXPECT_DOUBLE_EQ(busy->num_or("p50", -1), 1.0);
  EXPECT_NEAR(busy->num_or("p95", -1), 1.9, 1e-9);
  EXPECT_NEAR(busy->num_or("p99", -1), 1.98, 1e-9);
}

TEST(Json, ParseRoundTripsJournalShapes) {
  const JsonValue v = parse_json(
      R"({"n":3,"type":"move","ok":true,"mean":0.125,"tags":[1,2],"nested":{"x":null}})");
  EXPECT_EQ(static_cast<int>(v.num_or("n", -1)), 3);
  EXPECT_EQ(v.str_or("type", ""), "move");
  EXPECT_TRUE(v.bool_or("ok", false));
  EXPECT_EQ(v.num_or("mean", 0), 0.125);
  ASSERT_NE(v.find("tags"), nullptr);
  EXPECT_EQ(v.find("tags")->array.size(), 2u);
  ASSERT_NE(v.find("nested"), nullptr);
  EXPECT_TRUE(v.find("nested")->has("x"));
}

TEST(Json, WideNumReadsQuotedNonFinite) {
  const JsonValue v =
      parse_json(R"({"budget":"inf","bad":"-inf","nan":"nan","x":2})");
  EXPECT_TRUE(std::isinf(v.wide_num_or("budget", 0)));
  EXPECT_LT(v.wide_num_or("bad", 0), 0);
  EXPECT_TRUE(std::isnan(v.wide_num_or("nan", 0)));
  EXPECT_EQ(v.wide_num_or("x", 0), 2.0);
  EXPECT_EQ(v.wide_num_or("absent", 9), 9.0);
}

/// The message parse_json throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)parse_json(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// A string's plain bytes decode in runs; this one is longer than any
/// small-string buffer.
const std::string kPlainRun(100, 'x');

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{} trailing"), Error);
  EXPECT_THROW(parse_json("{\"a\":}"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  // A string that runs off the end fails at the input's size, inside a
  // run or right after an escape.
  for (const std::string& text :
       {"[\"" + kPlainRun, "[\"" + kPlainRun + "\\n", std::string("\"")}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(parse_error(text), "json: unterminated string at offset " +
                                     std::to_string(text.size()));
  }
}

TEST(Json, RejectsRawControlBytesInStrings) {
  // RFC 8259 requires bytes below 0x20 inside a string to be escaped.
  for (int byte = 0; byte < 0x20; ++byte) {
    SCOPED_TRACE(byte);
    const std::string text =
        std::string("{\"name\":\"ab") + static_cast<char>(byte) + "c\"}";
    EXPECT_EQ(parse_error(text),
              "json: raw control byte in string at offset 11");
    // At its own offset after a long run too.
    EXPECT_EQ(parse_error("[\"" + kPlainRun + static_cast<char>(byte) + "\"]"),
              "json: raw control byte in string at offset 102");
  }
  // In a key too, and escaped forms still parse.
  EXPECT_EQ(parse_error("{\"a\x01\":1}"),
            "json: raw control byte in string at offset 3");
  EXPECT_EQ(parse_json("{\"s\":\"a\\u0001\\tb\x7f\"}").str_or("s", ""),
            "a\x01\tb\x7f");
  // After a long run, an escape and the closing quote decode as before,
  // and bytes from 0x7f up are plain.
  EXPECT_EQ(parse_json("[\"" + kPlainRun + "\\n\\\"" + kPlainRun +
                       "\x7f\xc3\xa9\xff\\u00e9\"]")
                .array.at(0)
                .string,
            kPlainRun + "\n\"" + kPlainRun + "\x7f\xc3\xa9\xff\xc3\xa9");
}

TEST(Json, NumbersFollowTheGrammar) {
  for (const char* bad : {"+1", "01", "-01", "00", ".5", "-.5", "1.", "1.e5",
                          "-", "1e", "1e+", "--1", "1.5.2", "1e5e5"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse_error(std::string("[0,") + bad + "]"),
              std::string("json: bad number '") + bad + "' at offset 3");
  }
  for (const auto& [text, value] :
       std::vector<std::pair<const char*, double>>{{"0", 0.0},
                                                   {"-0", -0.0},
                                                   {"10", 10.0},
                                                   {"0.5", 0.5},
                                                   {"-1.25e-3", -1.25e-3},
                                                   {"1E+2", 100.0},
                                                   {"2e05", 2e5}}) {
    SCOPED_TRACE(text);
    const JsonValue v = parse_json(std::string("[") + text + "]");
    ASSERT_EQ(v.array.size(), 1u);
    EXPECT_EQ(v.array[0].number, value);
  }
}

TEST(Json, SurrogatePairsDecodeToOneFourByteSequence) {
  const auto decoded = [](const std::string& escape) {
    return parse_json("[\"" + escape + "\"]").array.at(0).string;
  };
  EXPECT_EQ(decoded("\\ud83d\\ude00"), "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_EQ(decoded("\\uD800\\uDC00"), "\xf0\x90\x80\x80");  // U+10000
  EXPECT_EQ(decoded("\\udbff\\udfff"), "\xf4\x8f\xbf\xbf");  // U+10FFFF
  EXPECT_EQ(decoded("a\\ud83d\\ude00b"), "a\xf0\x9f\x98\x80" "b");
  // The code points beside the surrogate block still decode alone.
  EXPECT_EQ(decoded("\\ud7ff"), "\xed\x9f\xbf");
  EXPECT_EQ(decoded("\\ue000"), "\xee\x80\x80");
}

TEST(Json, LoneSurrogatesAreRejected) {
  // The offset names the escape that starts the unpaired surrogate.
  EXPECT_EQ(parse_error("[\"\\ud800\"]"),
            "json: unpaired surrogate \\ud800 at offset 2");
  EXPECT_EQ(parse_error("[\"\\udc00\"]"),
            "json: unpaired surrogate \\udc00 at offset 2");
  EXPECT_EQ(parse_error("[\"ab\\ud83d\\u0041\"]"),
            "json: unpaired surrogate \\ud83d at offset 4");
  EXPECT_EQ(parse_error("[\"\\ud83d\\ud83d\\ude00\"]"),
            "json: unpaired surrogate \\ud83d at offset 2");
  EXPECT_EQ(parse_error("[\"\\ude00\\ud83d\"]"),
            "json: unpaired surrogate \\ude00 at offset 2");
  EXPECT_EQ(parse_error("{\"\\uDBFF\":1}"),
            "json: unpaired surrogate \\uDBFF at offset 2");
}

TEST(Json, ByteMutationsOfASubmitParseOrFailAtAnOffset) {
  // perfbench's circuit submit: the exported shepard(1) machine and
  // step-0 graph, one CCD rotation.
  const SearchOptions options{
      .rotations = 1, .seed = 1, .export_profiles_db = false};
  const std::string submit =
      "{\"op\":\"submit\",\"machine\":\"" +
      json_escape(machine_to_string(make_shepard(1))) + "\",\"graph\":\"" +
      json_escape(
          task_graph_to_string(make_app_by_name("circuit", 1, 0).graph)) +
      "\",\"options\":" + search_options_to_json(options) + "}";
  int parsed = 0;
  int failed = 0;
  // Parses, or throws one Error: "json: <what> at offset N", N within
  // the input. Any other exception fails the test.
  const auto check = [&](const std::string& text) {
    try {
      (void)parse_json(text);
      ++parsed;
    } catch (const Error& e) {
      ++failed;
      const std::string what = e.what();
      const std::size_t at = what.rfind(" at offset ");
      const std::string offset =
          at == std::string::npos ? "" : what.substr(at + 11);
      ASSERT_EQ(what.rfind("json: ", 0), 0u) << what;
      ASSERT_TRUE(!offset.empty() &&
                  offset.find_first_not_of("0123456789") == std::string::npos)
          << what;
      ASSERT_LE(std::stoull(offset), text.size()) << what;
    }
  };
  for (std::size_t i = 0; i <= submit.size(); ++i) {
    SCOPED_TRACE(i);
    for (const char* escape : {"\\ud800", "\\udc00", "\\ud83d\\ude00"})
      check(std::string(submit).insert(i, escape));
    if (i == submit.size()) break;
    check(std::string(submit).erase(i, 1));
    for (const char byte : {'"', '\\', '\x01', '\xff', '{'}) {
      std::string mutated = submit;
      mutated[i] = byte;
      check(mutated);
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(failed, 0);
}

TEST(Json, MetricsSnapshotEscapesControlBytesInNames) {
  MetricsRegistry metrics;
  std::string name = "odd";
  for (char c = 0x01; c < 0x20; ++c) name += c;
  metrics.counter(name, "help")->inc();
  metrics.gauge(name + "_gauge", "help")->set(2.0);
  metrics.histogram(name + "_seconds", "help", {1.0})->observe(0.5);
  const JsonValue snapshot = parse_json(metrics.snapshot_json());
  EXPECT_EQ(snapshot.num_or(name, 0), 1.0);
  EXPECT_EQ(snapshot.num_or(name + "_gauge", 0), 2.0);
  const JsonValue quantiles = parse_json(metrics.quantiles_json());
  ASSERT_NE(quantiles.find(name + "_seconds"), nullptr);
  EXPECT_EQ(quantiles.find(name + "_seconds")->num_or("count", 0), 1.0);
}

TEST(Json, DeterministicRendering) {
  EXPECT_EQ(json_double(0.5), "0.5");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
  EXPECT_EQ(json_double(std::nan("")), "\"nan\"");
  EXPECT_EQ(hex_u64(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(json_escape("a\"b\\c\td"), "a\\\"b\\\\c\\td");
  // Round trip through the parser, control characters included.
  const std::string tricky = "line1\nline2\x01end";
  const JsonValue v =
      parse_json("{\"s\":\"" + json_escape(tricky) + "\"}");
  EXPECT_EQ(v.str_or("s", ""), tricky);
  // So does every machine and graph text a submit carries.
  std::vector<std::string> texts = {machine_to_string(make_shepard(1)),
                                    machine_to_string(make_shepard(2)),
                                    machine_to_string(make_lassen(2))};
  for (const std::string& app : app_names())
    for (const int nodes : {1, 2})
      texts.push_back(
          task_graph_to_string(make_app_by_name(app, nodes, 0).graph));
  for (const std::string& text : texts)
    EXPECT_EQ(parse_json("[\"" + json_escape(text) + "\"]").array.at(0).string,
              text);
  // A finite double prints as "%.17g" does: journals, checkpoints and the
  // canonical options JSON have always been written that way.
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0,          -0.0,          0.1,          1e-5,
      1e-4,         1e16,          1e17,         123456789012345678.0,
      limits::min(), limits::denorm_min(), limits::max(), limits::lowest()};
  Rng rng(29);
  while (values.size() < 20000) {
    double value = 0;
    const std::uint64_t bits = rng.next();
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
    values.push_back(rng.uniform() * 1000.0);
  }
  for (const double value : values) {
    char expected[40];
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    ASSERT_EQ(json_double(value), expected);
  }
}

}  // namespace
}  // namespace automap
