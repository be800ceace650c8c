#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/cancel.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/progress.hpp"

namespace {

using bg::Rng;

TEST(Contracts, AssertThrowsWithContext) {
    try {
        BG_ASSERT(1 == 2, "math is broken");
        FAIL() << "expected ContractViolation";
    } catch (const bg::ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("math is broken"), std::string::npos);
    }
}

TEST(Contracts, PassingAssertIsSilent) {
    EXPECT_NO_THROW(BG_ASSERT(2 + 2 == 4, ""));
    EXPECT_NO_THROW(BG_EXPECTS(true, ""));
    EXPECT_NO_THROW(BG_ENSURES(true, ""));
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next_u64() == b.next_u64() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Rng, NextBelowCoversAllValues) {
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        seen.insert(rng.next_below(7));
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveRange) {
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.next_in(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, DoubleInUnitInterval) {
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
    Rng rng(13);
    double sum = 0;
    double sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.next_gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SampleIndicesDistinct) {
    Rng rng(5);
    const auto idx = rng.sample_indices(20, 10);
    EXPECT_EQ(idx.size(), 10u);
    std::set<std::size_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 10u);
    for (const auto i : idx) {
        EXPECT_LT(i, 20u);
    }
}

TEST(Rng, SampleIndicesFullPermutation) {
    Rng rng(5);
    const auto idx = rng.sample_indices(8, 8);
    std::set<std::size_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 8u);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto w = v;
    rng.shuffle(w);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(w.begin(), w.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, SplitStreamsIndependent) {
    Rng a(99);
    Rng b = a.split();
    // The parent continues past the split deterministically.
    Rng a2(99);
    (void)a2.split();
    EXPECT_EQ(a.next_u64(), a2.next_u64());
    // The split stream differs from the parent.
    Rng c(99);
    EXPECT_NE(b.next_u64(), c.next_u64());
}

TEST(Stats, MeanAndStddev) {
    const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(bg::mean(v), 5.0);
    EXPECT_NEAR(bg::stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, SummaryOrderStatistics) {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) {
        v.push_back(i);
    }
    const auto s = bg::summarize(v);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 100);
    EXPECT_NEAR(s.median, 50.5, 1e-12);
    EXPECT_NEAR(s.p10, 10.9, 1e-9);
    EXPECT_NEAR(s.p90, 90.1, 1e-9);
}

TEST(Stats, EmptyInputsAreSafe) {
    const std::vector<double> empty;
    EXPECT_DOUBLE_EQ(bg::mean(empty), 0.0);
    EXPECT_DOUBLE_EQ(bg::stddev(empty), 0.0);
    const auto s = bg::summarize(empty);
    EXPECT_EQ(s.count, 0u);
}

TEST(Stats, PearsonPerfectCorrelation) {
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{2, 4, 6, 8, 10};
    EXPECT_NEAR(bg::pearson(x, y), 1.0, 1e-12);
    std::vector<double> ny;
    for (const double v : y) {
        ny.push_back(-v);
    }
    EXPECT_NEAR(bg::pearson(x, ny), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSideIsZero) {
    const std::vector<double> x{1, 1, 1, 1};
    const std::vector<double> y{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(bg::pearson(x, y), 0.0);
}

TEST(Stats, SpearmanMonotoneNonlinear) {
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{1, 8, 27, 64, 125};  // monotone, nonlinear
    EXPECT_NEAR(bg::spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, RanksAverageTies) {
    const std::vector<double> v{10, 20, 20, 30};
    const auto r = bg::ranks(v);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    EXPECT_DOUBLE_EQ(r[1], 2.5);
    EXPECT_DOUBLE_EQ(r[2], 2.5);
    EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, MseAndMae) {
    const std::vector<double> p{1, 2, 3};
    const std::vector<double> t{1, 4, 2};
    EXPECT_NEAR(bg::mse(p, t), (0 + 4 + 1) / 3.0, 1e-12);
    EXPECT_NEAR(bg::mae(p, t), (0 + 2 + 1) / 3.0, 1e-12);
}

TEST(Stats, HistogramBinning) {
    const std::vector<double> v{0.0, 0.1, 0.5, 0.9, 1.0};
    const auto h = bg::histogram(v, 2, 0.0, 1.0);
    // 0.5 lands exactly on the boundary -> bin 1; 1.0 clamps into bin 1.
    EXPECT_EQ(h.counts[0], 2u);
    EXPECT_EQ(h.counts[1], 3u);
    const auto d = h.densities();
    EXPECT_NEAR(d[0] + d[1], 1.0, 1e-12);
}

TEST(Stats, HistogramAutoRange) {
    const std::vector<double> v{5, 6, 7, 8};
    const auto h = bg::histogram(v, 4);
    EXPECT_DOUBLE_EQ(h.lo, 5);
    EXPECT_DOUBLE_EQ(h.hi, 8);
    std::size_t total = 0;
    for (const auto c : h.counts) {
        total += c;
    }
    EXPECT_EQ(total, 4u);
}

TEST(Csv, EscapeRoundTrip) {
    EXPECT_EQ(bg::csv_escape("plain"), "plain");
    EXPECT_EQ(bg::csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(bg::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, ParseSimple) {
    const auto t = bg::parse_csv("a,b,c\n1,2,3\n4,5,6\n", true);
    ASSERT_EQ(t.header.size(), 3u);
    EXPECT_EQ(t.header[1], "b");
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.rows[1][2], "6");
}

TEST(Csv, ParseQuotedCells) {
    const auto t = bg::parse_csv("\"x,y\",\"he said \"\"no\"\"\"\nv,w\n", false);
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.rows[0][0], "x,y");
    EXPECT_EQ(t.rows[0][1], "he said \"no\"");
}

TEST(Csv, FileRoundTrip) {
    bg::CsvTable t;
    t.header = {"node", "decision"};
    t.rows = {{"0", "rw"}, {"1", "rs"}, {"2", "rf"}};
    const auto path = std::filesystem::temp_directory_path() /
                      "bg_csv_roundtrip_test.csv";
    bg::save_csv(path, t);
    const auto u = bg::load_csv(path, true);
    EXPECT_EQ(u.header, t.header);
    EXPECT_EQ(u.rows, t.rows);
    std::filesystem::remove(path);
}

TEST(Table, AlignedRendering) {
    bg::TablePrinter tp({"Design", "Size"});
    tp.add_row({"b07", "366"});
    tp.add_row({"c5315", "1778"});
    const auto s = tp.str();
    EXPECT_NE(s.find("Design"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
    EXPECT_NE(s.find("c5315"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
    bg::TablePrinter tp({"a", "b"});
    EXPECT_THROW(tp.add_row({"only-one"}), bg::ContractViolation);
}

/// Spin until `token`'s own deadline, armed a nanosecond ahead, has passed.
void wait_expired(const bg::CancelToken& token) {
    while (!token.deadline_expired()) {
    }
}

bg::CancelReason thrown_reason(const bg::CancelToken& token) {
    try {
        token.throw_if_stopped("test");
    } catch (const bg::CancelledError& e) {
        return e.reason();
    }
    ADD_FAILURE() << "a stopped token must throw";
    return bg::CancelReason::Cancelled;
}

TEST(CancelToken, ChildOfLiveParentRunsUntilItsOwnDeadline) {
    bg::CancelToken parent;
    bg::CancelToken child(&parent);
    child.set_deadline_after(3600.0);
    EXPECT_FALSE(child.should_stop());
    child.set_deadline_after(0.0);  // non-positive disarms
    EXPECT_FALSE(child.should_stop());
    const bg::CancelToken orphan(nullptr);
    EXPECT_FALSE(orphan.should_stop());
}

TEST(CancelToken, CancelledParentStopsChildAsCancelled) {
    bg::CancelToken parent;
    bg::CancelToken child(&parent);
    child.set_deadline_after(3600.0);
    parent.request_cancel();
    EXPECT_TRUE(child.should_stop());
    EXPECT_TRUE(child.cancel_requested());
    EXPECT_EQ(child.stop_reason(), bg::CancelReason::Cancelled);
    EXPECT_EQ(thrown_reason(child), bg::CancelReason::Cancelled);
}

TEST(CancelToken, ExpiredParentDeadlineStopsChildAsTimedOut) {
    bg::CancelToken parent;
    bg::CancelToken child(&parent);
    child.set_deadline_after(3600.0);
    parent.set_deadline_after(1e-9);
    wait_expired(parent);
    EXPECT_TRUE(child.should_stop());
    EXPECT_FALSE(child.cancel_requested());
    EXPECT_EQ(child.stop_reason(), bg::CancelReason::TimedOut);
    EXPECT_EQ(thrown_reason(child), bg::CancelReason::TimedOut);
}

TEST(CancelToken, ChildNeverStopsItsParent) {
    bg::CancelToken parent;
    {
        bg::CancelToken child(&parent);
        child.set_deadline_after(1e-9);
        wait_expired(child);
        EXPECT_EQ(child.stop_reason(), bg::CancelReason::TimedOut);
        EXPECT_FALSE(parent.should_stop());
    }
    bg::CancelToken child(&parent);
    child.request_cancel();
    EXPECT_EQ(child.stop_reason(), bg::CancelReason::Cancelled);
    EXPECT_FALSE(parent.should_stop());
    EXPECT_NO_THROW(parent.throw_if_stopped("test"));
}

}  // namespace
