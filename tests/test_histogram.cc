/**
 * @file
 * Unit tests for SummaryStats, Histogram and Table.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/histogram.h"
#include "util/table.h"

namespace fasttts
{
namespace
{

TEST(SummaryStats, EmptyIsZero)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryStats, SingleValue)
{
    SummaryStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryStats, KnownMoments)
{
    SummaryStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, MergeMatchesSequential)
{
    SummaryStats a;
    SummaryStats b;
    SummaryStats all;
    for (int i = 0; i < 50; ++i) {
        const double v = i * 0.37 - 3.0;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryStats, MergeWithEmpty)
{
    SummaryStats a;
    a.add(1.0);
    SummaryStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-3.0);  // clamped to bin 0
    h.add(42.0);  // clamped to bin 9
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    for (size_t b = 1; b < 9; ++b)
        EXPECT_EQ(h.binCount(b), 0u);
}

TEST(Histogram, BinEdges)
{
    Histogram h(0.0, 100.0, 4);
    EXPECT_DOUBLE_EQ(h.binLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binHi(0), 25.0);
    EXPECT_DOUBLE_EQ(h.binLo(3), 75.0);
    EXPECT_DOUBLE_EQ(h.binHi(3), 100.0);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 1000; ++i)
        h.add(i % 100);
    double prev = -1;
    for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const double q = h.quantile(p);
        EXPECT_GE(q, prev);
        prev = q;
    }
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
}

TEST(Histogram, QuantileEmptyReturnsLo)
{
    Histogram h(5.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(Histogram, SparklineHasOneCharPerBin)
{
    Histogram h(0.0, 1.0, 17);
    h.add(0.5);
    EXPECT_EQ(h.sparkline().size(), 17u);
}

TEST(Table, PrintsHeaderAndRows)
{
    Table t("title here");
    t.setHeader({"a", "b"});
    t.addRow({"x", "1"});
    t.addRow("row2", {2.5, 3.25}, 2);
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("title here"), std::string::npos);
    EXPECT_NE(out.find("| a"), std::string::npos);
    EXPECT_NE(out.find("row2"), std::string::npos);
    EXPECT_NE(out.find("2.50"), std::string::npos);
    EXPECT_NE(out.find("3.25"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

} // namespace
} // namespace fasttts
