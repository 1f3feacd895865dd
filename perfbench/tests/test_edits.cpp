// Properties of the benchmark's edit generator and statistics helpers.

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "common/rng.h"
#include "dataflow/runtime.h"
#include "edits.h"
#include "ir/validate.h"
#include "rosetta/benchmark.h"
#include "svc/wire.h"

using namespace pld;
using namespace pld::perfbench;

namespace {

const std::vector<rosetta::Benchmark> &
apps()
{
    static const auto all = rosetta::allBenchmarks();
    return all;
}

} // namespace

// Every generated edit, on every operator of every app, changes the operator's contentHash and keeps that change
// through the graph-text round trip the daemon receives.
TEST(Edits, EveryEditIsWireVisible)
{
    Rng rng(7);
    for (const auto &bm : apps()) {
        for (size_t oi = 0; oi < bm.graph.ops.size(); ++oi) {
            const auto &orig = bm.graph.ops[oi].fn;
            for (int k = 0; k < 4; ++k) {
                int64_t c = rng.range(1, 1 << 30);
                ir::OperatorFn fn = applyEdit(orig, c);
                EXPECT_NE(fn.contentHash(), orig.contentHash())
                    << bm.name << "/" << orig.name;
                ir::Graph g = withOperator(bm.graph, oi, fn);
                EXPECT_TRUE(wireVisible(g, oi, orig.contentHash()))
                    << bm.name << "/" << orig.name << " c=" << c;
                EXPECT_EQ(g.ops[oi].fn.pragma.target, orig.pragma.target);
            }
        }
    }
}

// Distinct constants give distinct operators, so no two edits in a
// run can be served from each other's cache entries.
TEST(Edits, DistinctConstantsGiveDistinctHashes)
{
    const auto &orig = apps()[0].graph.ops[0].fn;
    std::set<uint64_t> seen;
    for (int64_t c = 1; c <= 64; ++c)
        EXPECT_TRUE(seen.insert(applyEdit(orig, c).contentHash())
                        .second);
}

// The dead local gets a fresh name even when the operator already
// has one with the prefix (edits of edits stay valid IR).
TEST(Edits, RepeatedEditsStayValid)
{
    const auto &bm = apps()[1];
    ir::OperatorFn fn = bm.graph.ops[0].fn;
    for (int k = 0; k < 3; ++k)
        fn = applyEdit(fn, 100 + k);
    std::set<std::string> names;
    for (const auto &v : fn.vars)
        EXPECT_TRUE(names.insert(v.name).second) << v.name;
    ir::Graph g = withOperator(bm.graph, 0, fn);
    for (const auto &d : ir::validateGraph(g))
        EXPECT_NE(d.level, ir::DiagLevel::Error) << d.message;
    EXPECT_TRUE(wireVisible(g, 0, bm.graph.ops[0].fn.contentHash()));
}

// Edits preserve the function: the edited graph still produces the
// golden words when executed as a Kahn process network.
TEST(Edits, EditsPreserveGoldenOutput)
{
    Rng rng(11);
    for (const auto &bm : apps()) {
        ir::Graph g = bm.graph;
        for (size_t oi = 0; oi < g.ops.size(); ++oi)
            g.ops[oi].fn = applyEdit(g.ops[oi].fn, rng.range(1, 1 << 30));
        dataflow::GraphRuntime rt(g);
        rt.pushInput(0, bm.input);
        ASSERT_TRUE(rt.run()) << bm.name;
        EXPECT_EQ(rt.takeOutput(0), bm.expected) << bm.name;
    }
}

// The check has teeth: appending an empty Block (the edit the
// edit_compile_debug example uses) changes the in-memory hash but
// not the hash after the round trip, so the daemon would serve the
// unedited operator from cache.
TEST(Edits, EmptyBlockEditIsNotWireVisible)
{
    const auto &bm = apps()[3];
    ir::Graph g = bm.graph;
    uint64_t orig = g.ops[0].fn.contentHash();
    g.ops[0].fn.body.push_back(ir::makeStmt(ir::StmtKind::Block));
    EXPECT_NE(g.ops[0].fn.contentHash(), orig);
    EXPECT_FALSE(wireVisible(g, 0, orig));
}

TEST(Stats, PercentilesAndGeomean)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 90);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
    EXPECT_DOUBLE_EQ(median(v), 50.5);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({}), 0);
    EXPECT_NEAR(geomean({2, 8}), 4, 1e-12);
    EXPECT_EQ(geomean({1.5, 2.5, 7}), geomean({7, 2.5, 1.5}));
}

TEST(Stats, SupportedPercentileLeavesTenSamplesAbove)
{
    EXPECT_EQ(supportedPercentile(19), 0);
    EXPECT_EQ(supportedPercentile(20), 50);
    EXPECT_EQ(supportedPercentile(41), 75);
    EXPECT_EQ(supportedPercentile(100), 90);
    EXPECT_EQ(supportedPercentile(200), 95);
    EXPECT_EQ(supportedPercentile(1000), 99);
}

// Names and units must fit the result-line format: at most 64 (units
// 16) of letters, digits, '_', '.', '-' (units also '/', '%').
TEST(Metrics, CatalogueNamesAndUnitsAreWellFormed)
{
    std::set<std::string> names;
    bool setup = false;
    for (const auto &d : metricCatalogue()) {
        std::string n = d.name, u = d.unit, b = d.better;
        EXPECT_TRUE(names.insert(n).second) << n;
        ASSERT_FALSE(n.empty());
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(n[0]))) << n;
        EXPECT_LE(n.size(), 64u);
        for (char ch : n)
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) ||
                        ch == '_' || ch == '.' || ch == '-')
                << n;
        EXPECT_FALSE(u.empty()) << n;
        EXPECT_LE(u.size(), 16u);
        for (char ch : u)
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) ||
                        ch == '_' || ch == '/' || ch == '%' || ch == '.' ||
                        ch == '-')
                << n << " " << u;
        EXPECT_TRUE(b == "lower" || b == "higher") << n;
        if (n == "setup_s") {
            setup = true;
            EXPECT_TRUE(d.endToEnd);
            EXPECT_EQ(u, "s");
            EXPECT_EQ(b, "lower");
        }
    }
    EXPECT_TRUE(setup);
}
