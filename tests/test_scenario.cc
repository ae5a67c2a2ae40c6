/**
 * @file
 * Tests of the scenario registry, the result sinks and the golden-output
 * regression: every registered scenario is rendered through the CSV sink
 * at a tiny fixed scale and compared byte-for-byte against the
 * checked-in goldens in tests/golden/, at 1, 2 and 8 worker threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/parallel.h"
#include "core/scenario.h"

#ifndef RIF_GOLDEN_DIR
#error "RIF_GOLDEN_DIR must point at tests/golden"
#endif

namespace rif {
namespace {

using core::Scenario;
using core::ScenarioRegistry;

constexpr double kGoldenScale = 0.05;

std::string
renderCsv(const Scenario &scenario, double scale)
{
    std::ostringstream os;
    core::CsvSink sink(os);
    const core::OptionSet no_overrides;
    core::runScenario(scenario, sink, scale, no_overrides);
    return os.str();
}

std::string
readGolden(const std::string &name)
{
    const std::string path =
        std::string(RIF_GOLDEN_DIR) + "/" + name + ".csv";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(ScenarioRegistry, HoldsEveryPortedBench)
{
    const auto all = ScenarioRegistry::instance().all();
    EXPECT_EQ(all.size(), 27u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(std::string(all[i - 1]->name), all[i]->name);
    for (const Scenario *s : all) {
        EXPECT_NE(std::string(s->title), "");
        EXPECT_NE(std::string(s->paperRef), "");
        EXPECT_EQ(ScenarioRegistry::instance().find(s->name), s);
    }
}

TEST(ScenarioRegistry, FindReturnsNullForUnknownNames)
{
    EXPECT_EQ(ScenarioRegistry::instance().find("fig99_nope"), nullptr);
    EXPECT_EQ(ScenarioRegistry::instance().find(""), nullptr);
}

TEST(ScenarioRegistryDeathTest, RejectsDuplicateRegistration)
{
    const auto all = ScenarioRegistry::instance().all();
    ASSERT_FALSE(all.empty());
    EXPECT_DEATH(ScenarioRegistry::instance().add(*all[0]), "duplicate");
}

TEST(ScenarioContext, ScaledClampsOverflowAndNonFiniteScales)
{
    const core::OptionSet opts;
    std::ostringstream os;
    core::TableSink sink(os);
    core::ScenarioContext ctx{sink, opts, 1e12};
    // Overflow clamps to INT_MAX instead of wrapping the int cast.
    EXPECT_EQ(ctx.scaled(1u << 20), std::numeric_limits<int>::max());
    ctx.scale = 1.0;
    EXPECT_EQ(ctx.scaled(std::numeric_limits<std::uint64_t>::max()),
              std::numeric_limits<int>::max());
    // A count is never below one.
    EXPECT_EQ(ctx.scaled(0), 1);
    ctx.scale = 1e-9;
    EXPECT_EQ(ctx.scaled(100), 1);
    ctx.scale = 0.5;
    EXPECT_EQ(ctx.scaled(1000), 500);
    // Non-finite and non-positive scales fall back to one.
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {0.0, -2.0, std::nan(""), inf, -inf}) {
        ctx.scale = bad;
        EXPECT_EQ(ctx.scaled(1000), 1) << "scale=" << bad;
    }
}

// ---------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------

Table
sampleTable()
{
    Table t("sample");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1.50"});
    t.addRow({"beta", "2.25"});
    return t;
}

TEST(Sinks, FormatNamesRoundTrip)
{
    for (core::SinkFormat f :
         {core::SinkFormat::Table, core::SinkFormat::Csv,
          core::SinkFormat::Jsonl}) {
        const auto parsed = core::parseSinkFormat(core::sinkFormatName(f));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, f);
    }
    EXPECT_FALSE(core::parseSinkFormat("yaml").has_value());
    EXPECT_FALSE(core::parseSinkFormat("").has_value());
    EXPECT_FALSE(core::parseSinkFormat("CSV").has_value());
}

TEST(Sinks, TableSinkMatchesLegacyBanner)
{
    std::ostringstream os;
    core::TableSink sink(os);
    sink.header("My title", "Fig. 42");
    sink.text("done\n");
    EXPECT_EQ(os.str(), "##\n## My title\n## Reproduces: Fig. 42\n##\n"
                        "done\n");
}

TEST(Sinks, CsvSinkEmitsDataOnly)
{
    std::ostringstream os;
    core::CsvSink sink(os);
    sink.header("My title", "Fig. 42");
    sink.table(sampleTable());
    sink.text("prose that must be dropped\n");
    EXPECT_EQ(os.str(), "# My title\n"
                        "# Reproduces: Fig. 42\n"
                        "# == sample ==\n"
                        "name,value\n"
                        "alpha,1.50\n"
                        "beta,2.25\n");
}

TEST(Sinks, JsonlSinkKeysRowsByHeader)
{
    std::ostringstream os;
    core::JsonlSink sink(os);
    sink.header("My title", "Fig. 42");
    sink.table(sampleTable());
    sink.text("dropped\n");
    EXPECT_EQ(
        os.str(),
        "{\"type\":\"header\",\"title\":\"My title\","
        "\"reproduces\":\"Fig. 42\"}\n"
        "{\"type\":\"row\",\"table\":\"sample\",\"name\":\"alpha\","
        "\"value\":\"1.50\"}\n"
        "{\"type\":\"row\",\"table\":\"sample\",\"name\":\"beta\","
        "\"value\":\"2.25\"}\n");
}

TEST(Sinks, JsonlSinkEscapesSpecialCharacters)
{
    Table t("q\"t");
    t.setHeader({"k"});
    t.addRow({"a\\b\"c\nd\te\r" + std::string(1, '\x01')});
    std::ostringstream os;
    core::JsonlSink sink(os);
    sink.table(t);
    EXPECT_EQ(os.str(),
              "{\"type\":\"row\",\"table\":\"q\\\"t\","
              "\"k\":\"a\\\\b\\\"c\\nd\\te\\r\\u0001\"}\n");
}

TEST(Sinks, NoteFormatsLikeAnOstream)
{
    std::ostringstream os;
    core::TableSink sink(os);
    sink.note("x=", 1.5, " n=", std::size_t{7}, "\n");
    EXPECT_EQ(os.str(), "x=1.5 n=7\n");
}

TEST(Sinks, MakeSinkBuildsEveryFormat)
{
    std::ostringstream os;
    for (core::SinkFormat f :
         {core::SinkFormat::Table, core::SinkFormat::Csv,
          core::SinkFormat::Jsonl}) {
        const auto sink = core::makeSink(f, os);
        ASSERT_NE(sink, nullptr);
        sink->header("t", "r");
    }
    EXPECT_FALSE(os.str().empty());
}

// ---------------------------------------------------------------------
// Golden regression + determinism across thread counts.
// ---------------------------------------------------------------------

class GoldenGuard
{
  public:
    ~GoldenGuard() { setGlobalThreadCount(0); }
};

TEST(ScenarioGolden, EveryScenarioMatchesItsGolden)
{
    GoldenGuard guard;
    setGlobalThreadCount(2);
    for (const Scenario *s : ScenarioRegistry::instance().all()) {
        const std::string got = renderCsv(*s, kGoldenScale);
        const std::string want = readGolden(s->name);
        EXPECT_EQ(got, want)
            << "scenario '" << s->name << "' diverged from its golden; "
            << "regenerate with: rif run " << s->name
            << " --scale 0.05 --format=csv --out tests/golden/"
            << s->name << ".csv";
    }
}

TEST(ScenarioGolden, ThreadCountDoesNotChangeResults)
{
    GoldenGuard guard;
    // A cheap scenario that still exercises the parallel SSD sweep.
    const Scenario *s =
        ScenarioRegistry::instance().find("ablation_tpred");
    ASSERT_NE(s, nullptr);
    setGlobalThreadCount(1);
    const std::string one = renderCsv(*s, 0.02);
    setGlobalThreadCount(2);
    const std::string two = renderCsv(*s, 0.02);
    setGlobalThreadCount(8);
    const std::string eight = renderCsv(*s, 0.02);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
    EXPECT_FALSE(one.empty());
}

} // namespace
} // namespace rif
