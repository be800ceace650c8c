#include <gtest/gtest.h>

#include <set>

#include "aig/simulation.hpp"
#include "cut/cut_enum.hpp"
#include "test_helpers.hpp"
#include "tt/truth_table.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::cut::cone_function;
using bg::cut::enumerate_cuts;
using bg::cut::reconv_cut;
using bg::cut::WindowTables;
using bg::tt::TruthTable;

TEST(CutEnum, SimpleAndGate) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit x = g.and_(a, b);
    g.add_po(x);
    const auto cuts = enumerate_cuts(g, lit_var(x), 4, 100);
    ASSERT_EQ(cuts.size(), 1u);  // only {a, b}
    EXPECT_EQ(cuts[0].leaves,
              (std::vector<Var>{lit_var(a), lit_var(b)}));
    // function must be AND over two leaves, repeated across 16 bits
    EXPECT_EQ(cuts[0].function, 0x8888);
    EXPECT_EQ(cuts[0].function, (TruthTable::nth_var(2, 0) &
                                 TruthTable::nth_var(2, 1))
                                    .to_u16());
}

TEST(CutEnum, TwoLevelConeEnumeratesAllCuts) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit c = g.add_pi();
    const Lit x = g.and_(a, b);
    const Lit y = g.and_(x, c);
    g.add_po(y);
    const auto cuts = enumerate_cuts(g, lit_var(y), 4, 100);
    std::set<std::vector<Var>> leaf_sets;
    for (const auto& cut : cuts) {
        leaf_sets.insert(cut.leaves);
    }
    // Expected cuts of y: {x, c} and {a, b, c}.
    EXPECT_TRUE(leaf_sets.contains(
        std::vector<Var>{std::min(lit_var(x), lit_var(c)),
                         std::max(lit_var(x), lit_var(c))}));
    std::vector<Var> abc{lit_var(a), lit_var(b), lit_var(c)};
    std::sort(abc.begin(), abc.end());
    EXPECT_TRUE(leaf_sets.contains(abc));
    EXPECT_EQ(cuts.size(), 2u);
}

TEST(CutEnum, RespectsK) {
    // A balanced 8-input AND tree: with k=4 no cut can have more leaves.
    Aig g;
    const auto pis = g.add_pis(8);
    const Lit root = g.and_reduce(pis);
    g.add_po(root);
    const auto cuts = enumerate_cuts(g, lit_var(root), 4, 1000);
    EXPECT_FALSE(cuts.empty());
    for (const auto& cut : cuts) {
        EXPECT_LE(cut.leaves.size(), 4u);
        EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
    }
}

TEST(CutEnum, MaxCutsCap) {
    bg::test::Aig g = bg::test::random_aig(8, 60, 2, 5);
    const auto ands = g.topo_ands();
    const Var root = ands.back();
    const auto cuts = enumerate_cuts(g, root, 4, 5);
    EXPECT_LE(cuts.size(), 5u);
}

TEST(CutEnum, CutFunctionsMatchSimulation) {
    // For every enumerated cut, check the cut function against exhaustive
    // cone evaluation through full-graph simulation.
    const auto g = bg::test::random_aig(6, 40, 2, 11);
    const auto sims = simulate(g, exhaustive_patterns(g.num_pis()));
    const auto ands = g.topo_ands();
    for (std::size_t idx = 0; idx < ands.size(); idx += 7) {
        const Var root = ands[idx];
        for (const auto& cut : enumerate_cuts(g, root, 4, 16)) {
            // Evaluate the cut function on each global minterm by plugging
            // in the leaves' simulated values.
            const unsigned nv = static_cast<unsigned>(cut.leaves.size());
            for (std::uint64_t m = 0; m < 64; ++m) {
                std::uint64_t leaf_vals = 0;
                for (unsigned i = 0; i < nv; ++i) {
                    const bool bit = (sims[cut.leaves[i]][0] >> m) & 1;
                    leaf_vals |= static_cast<std::uint64_t>(bit) << i;
                }
                const bool expect = (sims[root][0] >> m) & 1;
                EXPECT_EQ(((cut.function >> leaf_vals) & 1U) != 0, expect)
                    << "root " << root << " minterm " << m;
            }
        }
    }
}

TEST(ReconvCut, GrowsWithinBound) {
    const auto g = bg::test::random_aig(10, 80, 3, 21);
    const auto ands = g.topo_ands();
    for (std::size_t idx = 0; idx < ands.size(); idx += 5) {
        const auto leaves = reconv_cut(g, ands[idx], 8);
        if (leaves.empty()) {
            continue;
        }
        EXPECT_GE(leaves.size(), 2u);
        EXPECT_LE(leaves.size(), 8u);
        EXPECT_TRUE(std::is_sorted(leaves.begin(), leaves.end()));
        // Must be a real cut: cone evaluation succeeds.
        EXPECT_NO_THROW((void)cone_function(g, ands[idx], leaves));
    }
}

TEST(ReconvCut, PiRootHasNoCut) {
    Aig g;
    const Lit a = g.add_pi();
    g.add_po(a);
    EXPECT_TRUE(reconv_cut(g, lit_var(a), 8).empty());
}

TEST(WindowTables, CoversAllConeNodes) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit c = g.add_pi();
    const Lit x = g.and_(a, b);
    const Lit y = g.and_(x, c);
    g.add_po(y);
    const std::vector<Var> leaves{lit_var(a), lit_var(b), lit_var(c)};
    WindowTables window;
    window.reset(g, leaves);
    const auto root_row = window.add_cone(g, lit_var(y));
    EXPECT_EQ(window.num_rows(), 5u);  // 3 leaves + x + y
    EXPECT_EQ(window.var(root_row), lit_var(y));
    ASSERT_TRUE(window.contains(lit_var(x)));
    const auto xt = TruthTable::nth_var(3, 0) & TruthTable::nth_var(3, 1);
    EXPECT_EQ(window.words(window.row(lit_var(x)))[0], xt.words()[0]);
    EXPECT_FALSE(window.contains(0));
}

TEST(WindowTables, AddAndExtendsAWideWindow) {
    // Nine leaves: tables span eight words.  A side node appended after
    // the cone reads both fanin rows, one of them complemented.
    Aig g;
    const auto pis = g.add_pis(9);
    const Lit root = g.and_reduce(pis);
    const Lit side = g.and_(lit_not(pis[8]), pis[0]);
    g.add_po(root);
    g.add_po(side);
    const std::vector<Var> leaves(
        {lit_var(pis[0]), lit_var(pis[1]), lit_var(pis[2]), lit_var(pis[3]),
         lit_var(pis[4]), lit_var(pis[5]), lit_var(pis[6]), lit_var(pis[7]),
         lit_var(pis[8])});
    WindowTables window;
    window.reset(g, leaves);
    const auto root_row = window.add_cone(g, lit_var(root));
    ASSERT_EQ(window.num_words(), 8u);
    const auto [f0, f1] = g.fanin_refs(lit_var(side));
    const auto side_row = window.add_and(lit_var(side), f0, f1);
    TruthTable all = TruthTable::ones(9);
    for (unsigned i = 0; i < 9; ++i) {
        all &= TruthTable::nth_var(9, i);
    }
    const TruthTable expect_side =
        ~TruthTable::nth_var(9, 8) & TruthTable::nth_var(9, 0);
    for (std::size_t w = 0; w < 8; ++w) {
        EXPECT_EQ(window.words(root_row)[w], all.words()[w]) << w;
        EXPECT_EQ(window.words(side_row)[w], expect_side.words()[w]) << w;
    }
    EXPECT_EQ(cone_function(g, lit_var(root), leaves), all);
}

TEST(ConeFunctions, ThrowsWhenLeavesNotACut) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit c = g.add_pi();
    const Lit x = g.and_(a, b);
    const Lit y = g.and_(x, c);
    g.add_po(y);
    // {a, c} is not a cut of y (path through b escapes).
    const std::vector<Var> bad{lit_var(a), lit_var(c)};
    EXPECT_THROW((void)cone_function(g, lit_var(y), bad),
                 bg::ContractViolation);
}

class CutSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CutSweep, EveryCutFunctionIsConsistent) {
    const auto g = bg::test::redundant_aig(7, 30, 2, GetParam());
    const auto ands = g.topo_ands();
    for (std::size_t idx = 0; idx < ands.size(); idx += 9) {
        for (const auto& cut : enumerate_cuts(g, ands[idx], 4, 10)) {
            // Recompute via cone_function — must agree with stored one.
            EXPECT_EQ(cone_function(g, ands[idx], cut.leaves).to_u16(),
                      cut.function);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
