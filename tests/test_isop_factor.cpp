#include <gtest/gtest.h>

#include "tt/factor.hpp"
#include "tt/isop.hpp"
#include "tt/sop.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace {

using bg::tt::Cube;
using bg::tt::FactorForm;
using bg::tt::Sop;
using bg::tt::TruthTable;

TruthTable random_tt(unsigned nv, bg::Rng& rng) {
    TruthTable f(nv);
    for (std::uint64_t m = 0; m < f.num_bits(); ++m) {
        f.set_bit(m, rng.next_bool());
    }
    return f;
}

TEST(Cube, LiteralCountAndContainment) {
    Cube c;
    c.pos = 0b0101;
    c.neg = 0b1000;
    EXPECT_EQ(c.num_literals(), 3u);
    EXPECT_TRUE(c.has_var(0));
    EXPECT_FALSE(c.has_var(1));
    EXPECT_TRUE(c.has_var(3));
    Cube sub;
    sub.pos = 0b0001;
    EXPECT_TRUE(c.contains(sub));
    EXPECT_FALSE(sub.contains(c));
}

TEST(Sop, TruthTableOfCubes) {
    // f = a!b + c over 3 vars.
    Sop s(3);
    s.add_cube(Cube{.pos = 0b001, .neg = 0b010});
    s.add_cube(Cube{.pos = 0b100, .neg = 0});
    const auto a = TruthTable::nth_var(3, 0);
    const auto b = TruthTable::nth_var(3, 1);
    const auto c = TruthTable::nth_var(3, 2);
    EXPECT_EQ(s.to_tt(), ((a & ~b) | c));
    EXPECT_EQ(s.num_literals(), 3u);
}

TEST(Sop, EmptyCubeIsConstOne) {
    Sop s(2);
    s.add_cube(Cube{});
    EXPECT_TRUE(s.to_tt().is_const1());
}

TEST(Sop, EmptyCoverIsConstZero) {
    const Sop s(4);
    EXPECT_TRUE(s.to_tt().is_const0());
}

TEST(Sop, LiteralOccurrences) {
    Sop s(2);
    s.add_cube(Cube{.pos = 0b01, .neg = 0});
    s.add_cube(Cube{.pos = 0b11, .neg = 0});
    s.add_cube(Cube{.pos = 0b10, .neg = 0b01});
    EXPECT_EQ(s.literal_occurrences(0, true), 2u);
    EXPECT_EQ(s.literal_occurrences(0, false), 1u);
    EXPECT_EQ(s.literal_occurrences(1, true), 2u);
}

TEST(Isop, ExactCoverOnRandomFunctions) {
    bg::Rng rng(42);
    for (unsigned nv : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
        for (int iter = 0; iter < 30; ++iter) {
            const auto f = random_tt(nv, rng);
            const auto cover = bg::tt::isop(f);
            EXPECT_EQ(cover.to_tt(), f)
                << "ISOP must reproduce the function exactly (nv=" << nv
                << ")";
        }
    }
}

TEST(Isop, ConstantFunctions) {
    const auto zero_cover = bg::tt::isop(TruthTable::zeros(4));
    EXPECT_TRUE(zero_cover.empty());
    const auto one_cover = bg::tt::isop(TruthTable::ones(4));
    ASSERT_EQ(one_cover.num_cubes(), 1u);
    EXPECT_EQ(one_cover.cubes()[0].num_literals(), 0u);
}

TEST(Isop, SingleMinterm) {
    TruthTable f(3);
    f.set_bit(0b101, true);
    const auto cover = bg::tt::isop(f);
    ASSERT_EQ(cover.num_cubes(), 1u);
    EXPECT_EQ(cover.cubes()[0].pos, 0b101u);
    EXPECT_EQ(cover.cubes()[0].neg, 0b010u);
}

TEST(Isop, RespectsDontCares) {
    bg::Rng rng(43);
    for (int iter = 0; iter < 50; ++iter) {
        const unsigned nv = 5;
        auto on = random_tt(nv, rng);
        auto dc = random_tt(nv, rng);
        dc &= ~on;  // disjoint
        const auto cover = bg::tt::isop(on, dc);
        const auto g = cover.to_tt();
        EXPECT_TRUE(on.implies(g)) << "cover must include the onset";
        EXPECT_TRUE(g.implies(on | dc)) << "cover must avoid the offset";
    }
}

TEST(Isop, IrredundantCubes) {
    // Dropping any single cube must break the cover.
    bg::Rng rng(44);
    for (int iter = 0; iter < 25; ++iter) {
        const auto f = random_tt(4, rng);
        const auto cover = bg::tt::isop(f);
        for (std::size_t drop = 0; drop < cover.num_cubes(); ++drop) {
            Sop reduced(cover.num_vars());
            for (std::size_t i = 0; i < cover.num_cubes(); ++i) {
                if (i != drop) {
                    reduced.add_cube(cover.cubes()[i]);
                }
            }
            EXPECT_NE(reduced.to_tt(), f)
                << "cube " << drop << " is redundant";
        }
    }
}

TEST(Isop, XorNeedsExponentialCubes) {
    // Parity of n vars has 2^(n-1) prime implicants — a sanity check that
    // we produce a minimal-size family for the hardest case.
    auto f = TruthTable::nth_var(4, 0);
    for (unsigned i = 1; i < 4; ++i) {
        f ^= TruthTable::nth_var(4, i);
    }
    const auto cover = bg::tt::isop(f);
    EXPECT_EQ(cover.num_cubes(), 8u);
}

TEST(Isop, BestPhasePicksSmaller) {
    // f = a + b + c + d : one cube in the complement, four in the direct.
    auto f = TruthTable::zeros(4);
    for (unsigned i = 0; i < 4; ++i) {
        f |= TruthTable::nth_var(4, i);
    }
    bool complemented = false;
    const auto cover = bg::tt::isop_best_phase(f, complemented);
    EXPECT_TRUE(complemented);
    EXPECT_EQ(cover.num_cubes(), 1u);
}

TEST(Factor, PreservesFunctionOnRandom) {
    bg::Rng rng(45);
    for (unsigned nv : {2u, 3u, 4u, 5u, 6u}) {
        for (int iter = 0; iter < 25; ++iter) {
            const auto f = random_tt(nv, rng);
            const auto cover = bg::tt::isop(f);
            const auto ff = bg::tt::factor(cover);
            EXPECT_EQ(ff.to_tt(), f);
        }
    }
}

TEST(Factor, SharesCommonLiteral) {
    // ab + ac + ad factors as a(b + c + d): 4 literals instead of 6.
    Sop s(4);
    s.add_cube(Cube{.pos = 0b0011, .neg = 0});
    s.add_cube(Cube{.pos = 0b0101, .neg = 0});
    s.add_cube(Cube{.pos = 0b1001, .neg = 0});
    const auto ff = bg::tt::factor(s);
    EXPECT_EQ(ff.literal_count(), 4u);
    EXPECT_EQ(ff.to_tt(), s.to_tt());
}

TEST(Factor, AigNodeCountMatchesGateKinds) {
    // a(b + c): one OR + one AND = 2 AIG nodes.
    Sop s(3);
    s.add_cube(Cube{.pos = 0b011, .neg = 0});
    s.add_cube(Cube{.pos = 0b101, .neg = 0});
    const auto ff = bg::tt::factor(s);
    EXPECT_EQ(ff.aig_node_count(), 2u);
}

TEST(Factor, ConstantsAndSingleLiterals) {
    const auto zero = bg::tt::factor(Sop(3));
    EXPECT_TRUE(zero.is_constant());
    EXPECT_TRUE(zero.to_tt().is_const0());

    Sop one(3);
    one.add_cube(Cube{});
    const auto one_ff = bg::tt::factor(one);
    EXPECT_TRUE(one_ff.to_tt().is_const1());

    Sop lit(3);
    lit.add_cube(Cube{.pos = 0, .neg = 0b100});
    const auto lit_ff = bg::tt::factor(lit);
    EXPECT_EQ(lit_ff.literal_count(), 1u);
    EXPECT_EQ(lit_ff.to_tt(), ~TruthTable::nth_var(3, 2));
}

TEST(Factor, DepthIsLogarithmicForWideCubes) {
    // One cube with 16 literals: balanced AND tree depth should be 4.
    Sop s(16);
    Cube c;
    c.pos = 0xFFFF;
    s.add_cube(c);
    const auto ff = bg::tt::factor(s);
    EXPECT_EQ(ff.aig_node_count(), 15u);
    EXPECT_EQ(ff.depth(), 4u);
}

TEST(Factor, StringRenderingIsAlgebraic) {
    Sop s(3);
    s.add_cube(Cube{.pos = 0b011, .neg = 0});
    s.add_cube(Cube{.pos = 0b101, .neg = 0});
    const auto ff = bg::tt::factor(s);
    const auto str = ff.to_string();
    EXPECT_NE(str.find("a"), std::string::npos);
    EXPECT_NE(str.find("+"), std::string::npos);
}

TEST(Isop, CoverDigestUnchanged) {
    // Pins the cubes, in order, that the Minato-Morreale recursion over
    // heap truth tables produced: isop(f), isop(on, dc) and
    // isop_best_phase on seeded random functions of 5-12 variables and
    // one of 16.  Refactoring factors these covers, so any change in the
    // split variable or cube order would change its results.
    std::uint64_t h = 0;
    const auto add = [&](std::uint64_t x) {
        std::uint64_t z = h + 0x9E3779B97F4A7C15ULL + x;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        h = z ^ (z >> 31);
    };
    const auto add_cover = [&](const Sop& s) {
        add(s.num_vars());
        add(s.num_cubes());
        for (const Cube& c : s.cubes()) {
            add(c.pos);
            add(c.neg);
        }
    };
    bg::Rng rng(2401);
    for (unsigned nv : {5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 16u}) {
        for (int iter = 0; iter < (nv == 16 ? 1 : 4); ++iter) {
            const auto f = random_tt(nv, rng);
            const auto care = random_tt(nv, rng);
            add_cover(bg::tt::isop(f));
            add_cover(bg::tt::isop(f & care, ~care));
            bool complemented = false;
            add_cover(bg::tt::isop_best_phase(f, complemented));
            add(complemented ? 1 : 0);
        }
    }
    EXPECT_EQ(h, 0xd351bb01fca3f45aULL) << "digest 0x" << std::hex << h;
}

class IsopFactorSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(IsopFactorSweep, EndToEndFunctionPreservation) {
    const unsigned seed = GetParam();
    bg::Rng rng(seed);
    const unsigned nv = 2 + static_cast<unsigned>(rng.next_below(7));
    const auto f = random_tt(nv, rng);
    const auto cover = bg::tt::isop(f);
    const auto ff = bg::tt::factor(cover);
    ASSERT_EQ(ff.to_tt(), f) << "seed=" << seed << " nv=" << nv;
    // Factoring must never increase literal count beyond the flat SOP.
    EXPECT_LE(ff.literal_count(), cover.num_literals());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IsopFactorSweep,
                         ::testing::Range(0u, 40u));

}  // namespace
