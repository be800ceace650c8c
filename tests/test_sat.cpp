#include <gtest/gtest.h>

#include <string>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace {

using namespace bg::sat;  // NOLINT: test brevity

TEST(Sat, EmptyInstanceIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, SingleUnit) {
    Solver s;
    const Var x = s.new_var();
    EXPECT_TRUE(s.add_clause({mk_lit(x)}));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_value(x));
}

TEST(Sat, ContradictoryUnits) {
    Solver s;
    const Var x = s.new_var();
    EXPECT_TRUE(s.add_clause({mk_lit(x)}));
    EXPECT_FALSE(s.add_clause({mk_lit(x, true)}));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
    Solver s;
    (void)s.new_var();
    EXPECT_FALSE(s.add_clause({}));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, TautologyIgnored) {
    Solver s;
    const Var x = s.new_var();
    EXPECT_TRUE(s.add_clause({mk_lit(x), mk_lit(x, true)}));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, PropagationChain) {
    // x0 & (x0 -> x1) & (x1 -> x2) ... forces everything true.
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 20; ++i) {
        vars.push_back(s.new_var());
    }
    EXPECT_TRUE(s.add_clause({mk_lit(vars[0])}));
    for (int i = 0; i + 1 < 20; ++i) {
        EXPECT_TRUE(s.add_clause({mk_lit(vars[static_cast<std::size_t>(i)], true),
                                  mk_lit(vars[static_cast<std::size_t>(i) + 1])}));
    }
    EXPECT_EQ(s.solve(), Result::Sat);
    for (const Var v : vars) {
        EXPECT_TRUE(s.model_value(v));
    }
}

TEST(Sat, XorChainParity) {
    // Encode x0 ^ x1 ^ x2 = 1 with CNF; exactly the odd assignments work.
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    const Var c = s.new_var();
    const auto A = mk_lit(a);
    const auto B = mk_lit(b);
    const auto C = mk_lit(c);
    // odd parity clauses
    EXPECT_TRUE(s.add_clause({A, B, C}));
    EXPECT_TRUE(s.add_clause({A, lit_neg(B), lit_neg(C)}));
    EXPECT_TRUE(s.add_clause({lit_neg(A), B, lit_neg(C)}));
    EXPECT_TRUE(s.add_clause({lit_neg(A), lit_neg(B), C}));
    ASSERT_EQ(s.solve(), Result::Sat);
    const int ones = (s.model_value(a) ? 1 : 0) + (s.model_value(b) ? 1 : 0) +
                     (s.model_value(c) ? 1 : 0);
    EXPECT_EQ(ones % 2, 1);
}

TEST(Sat, PigeonholeUnsat) {
    // PHP(n+1, n): n+1 pigeons in n holes — classically UNSAT and a real
    // workout for clause learning.
    for (const int n : {3, 4, 5}) {
        Solver s;
        std::vector<std::vector<Var>> p(static_cast<std::size_t>(n + 1));
        for (int i = 0; i <= n; ++i) {
            for (int j = 0; j < n; ++j) {
                p[static_cast<std::size_t>(i)].push_back(s.new_var());
            }
        }
        // Every pigeon sits somewhere.
        for (int i = 0; i <= n; ++i) {
            std::vector<Lit> clause;
            for (int j = 0; j < n; ++j) {
                clause.push_back(mk_lit(p[static_cast<std::size_t>(i)]
                                         [static_cast<std::size_t>(j)]));
            }
            EXPECT_TRUE(s.add_clause(clause));
        }
        // No two pigeons share a hole.
        for (int j = 0; j < n; ++j) {
            for (int i1 = 0; i1 <= n; ++i1) {
                for (int i2 = i1 + 1; i2 <= n; ++i2) {
                    (void)s.add_clause(
                        {mk_lit(p[static_cast<std::size_t>(i1)]
                                 [static_cast<std::size_t>(j)], true),
                         mk_lit(p[static_cast<std::size_t>(i2)]
                                 [static_cast<std::size_t>(j)], true)});
                }
            }
        }
        EXPECT_EQ(s.solve(), Result::Unsat) << "PHP n=" << n;
    }
}

/// PHP(n+1, n): n+1 pigeons in n holes, UNSAT for every n.
void add_pigeonhole(Solver& s, int n) {
    std::vector<std::vector<Var>> p(static_cast<std::size_t>(n + 1));
    for (int i = 0; i <= n; ++i) {
        for (int j = 0; j < n; ++j) {
            p[static_cast<std::size_t>(i)].push_back(s.new_var());
        }
    }
    for (int i = 0; i <= n; ++i) {
        std::vector<Lit> clause;
        for (int j = 0; j < n; ++j) {
            clause.push_back(mk_lit(
                p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]));
        }
        (void)s.add_clause(clause);
    }
    for (int j = 0; j < n; ++j) {
        for (int i1 = 0; i1 <= n; ++i1) {
            for (int i2 = i1 + 1; i2 <= n; ++i2) {
                (void)s.add_clause(
                    {mk_lit(p[static_cast<std::size_t>(i1)]
                             [static_cast<std::size_t>(j)], true),
                     mk_lit(p[static_cast<std::size_t>(i2)]
                             [static_cast<std::size_t>(j)], true)});
            }
        }
    }
}

/// Seeded uniform random 3-SAT: `num_clauses` clauses over `num_vars`
/// fresh variables (repeated literals allowed; the solver normalizes).
void add_random_3sat(Solver& s, int num_vars, int num_clauses,
                     std::uint64_t seed) {
    bg::Rng rng(seed);
    const Var base = s.num_vars();
    for (int v = 0; v < num_vars; ++v) {
        (void)s.new_var();
    }
    for (int c = 0; c < num_clauses; ++c) {
        std::vector<Lit> clause;
        for (int k = 0; k < 3; ++k) {
            clause.push_back(mk_lit(
                base + static_cast<Var>(rng.next_below(
                           static_cast<std::uint64_t>(num_vars))),
                rng.next_bool()));
        }
        (void)s.add_clause(clause);
    }
}

struct SearchCounts {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
};

void expect_counts(const Solver& s, const SearchCounts& want,
                   const char* instance) {
    EXPECT_EQ(s.num_conflicts(), want.conflicts) << instance;
    EXPECT_EQ(s.num_decisions(), want.decisions) << instance;
    EXPECT_EQ(s.num_propagations(), want.propagations) << instance;
}

TEST(Sat, SearchUnchangedByOrderHeapAndArena) {
    // The order heap breaks activity ties on the lower variable index,
    // exactly like a linear scan over all variables, and the clause arena
    // keeps every clause's literal order and every watcher list's order.
    // So the search itself is pinned: these counts were recorded with the
    // linear-scan, vector-per-clause solver and must never move.
    {
        // Over 4,490 conflicts: var_inc passes 1e100, so the activity
        // rescale (and the heap rebuild after it) runs mid-search.  The
        // budget stops the search about a third of the way to its proof.
        Solver s;
        add_pigeonhole(s, 8);
        EXPECT_EQ(s.solve({}, 5000), Result::Unknown);
        EXPECT_GT(s.num_conflicts(), 4490u);
        expect_counts(s, {5001, 6062, 62146}, "PHP(9, 8)");
    }
    const SearchCounts random_counts[] = {
        {358, 465, 10190}, {778, 919, 20148}, {508, 642, 14160}};
    const Result random_results[] = {Result::Sat, Result::Unsat, Result::Sat};
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Solver s;
        add_random_3sat(s, 120, 510, seed);
        EXPECT_EQ(s.solve(), random_results[seed - 1]) << "seed " << seed;
        expect_counts(s, random_counts[seed - 1], "random 3-SAT");
    }
    {
        // One instance, many solves: learned clauses, saved phases and
        // activities carry over from one assumption set to the next.
        Solver s;
        add_random_3sat(s, 100, 400, 7);
        bg::Rng rng(11);
        std::string results;
        for (int round = 0; round < 24; ++round) {
            std::vector<Lit> assumptions;
            for (int k = 0; k < 4; ++k) {
                assumptions.push_back(
                    mk_lit(static_cast<Var>(rng.next_below(100)),
                           rng.next_bool()));
            }
            const Result r = s.solve(assumptions);
            results += r == Result::Sat ? 'S' : r == Result::Unsat ? 'U' : '?';
        }
        EXPECT_EQ(results, "SUSUUUUUUSSUSSUUUSUSSUUU");
        expect_counts(s, {1107, 1501, 28037}, "assumption sequence");
    }
}

TEST(Sat, AddClauseAfterFalsifiedAssumption) {
    // Assuming x propagates y through (!x | y), so the next assumption
    // !y is already false: solve() answers Unsat from decision level 1
    // and must still leave the solver at level 0 for add_clause().
    Solver s;
    const Var x = s.new_var();
    const Var y = s.new_var();
    const Var z = s.new_var();
    EXPECT_TRUE(s.add_clause({mk_lit(x, true), mk_lit(y)}));
    EXPECT_EQ(s.solve({mk_lit(x), mk_lit(y, true)}), Result::Unsat);
    EXPECT_TRUE(s.add_clause({mk_lit(z), mk_lit(x)}));
    EXPECT_EQ(s.solve({mk_lit(x, true), mk_lit(z, true)}), Result::Unsat);
    ASSERT_EQ(s.solve({mk_lit(x, true)}), Result::Sat);
    EXPECT_FALSE(s.model_value(x));
    EXPECT_TRUE(s.model_value(z));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(!s.model_value(x) || s.model_value(y));
    EXPECT_TRUE(s.model_value(z) || s.model_value(x));
}

TEST(Sat, AssumptionsRestrictModels) {
    Solver s;
    const Var x = s.new_var();
    const Var y = s.new_var();
    EXPECT_TRUE(s.add_clause({mk_lit(x), mk_lit(y)}));
    ASSERT_EQ(s.solve({mk_lit(x, true)}), Result::Sat);
    EXPECT_FALSE(s.model_value(x));
    EXPECT_TRUE(s.model_value(y));
    // Contradictory assumptions.
    EXPECT_EQ(s.solve({mk_lit(x, true), mk_lit(y, true)}), Result::Unsat);
    // Solver is reusable afterwards.
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
    // A hard pigeonhole with a tiny budget must give Unknown, not hang.
    Solver s;
    add_pigeonhole(s, 7);
    EXPECT_EQ(s.solve({}, 50), Result::Unknown);
}

/// Reference brute-force evaluation of a CNF over <= 16 vars.
bool brute_force_sat(int num_vars,
                     const std::vector<std::vector<Lit>>& clauses) {
    for (std::uint32_t m = 0; m < (1U << num_vars); ++m) {
        bool all = true;
        for (const auto& c : clauses) {
            bool sat = false;
            for (const Lit l : c) {
                const bool val = (m >> lit_var(l)) & 1U;
                if (val != lit_sign(l)) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                all = false;
                break;
            }
        }
        if (all) {
            return true;
        }
    }
    return false;
}

class RandomCnf : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCnf, AgreesWithBruteForce) {
    bg::Rng rng(GetParam());
    const int num_vars = 6 + static_cast<int>(rng.next_below(6));
    const std::size_t num_clauses =
        static_cast<std::size_t>(num_vars) * (3 + rng.next_below(3));
    std::vector<std::vector<Lit>> clauses;
    Solver s;
    for (int v = 0; v < num_vars; ++v) {
        (void)s.new_var();
    }
    bool early_unsat = false;
    for (std::size_t c = 0; c < num_clauses; ++c) {
        const std::size_t width = 1 + rng.next_below(3);
        std::vector<Lit> clause;
        for (std::size_t k = 0; k < width; ++k) {
            clause.push_back(
                mk_lit(static_cast<Var>(rng.next_below(
                           static_cast<std::uint64_t>(num_vars))),
                       rng.next_bool()));
        }
        clauses.push_back(clause);
        if (!s.add_clause(clause)) {
            early_unsat = true;
        }
    }
    const bool expected = brute_force_sat(num_vars, clauses);
    if (early_unsat) {
        EXPECT_FALSE(expected);
        return;
    }
    const auto got = s.solve();
    EXPECT_EQ(got == Result::Sat, expected) << "vars=" << num_vars;
    if (got == Result::Sat) {
        // The model must satisfy every clause.
        for (const auto& c : clauses) {
            bool sat = false;
            for (const Lit l : c) {
                if (s.model_value(lit_var(l)) != lit_sign(l)) {
                    sat = true;
                    break;
                }
            }
            EXPECT_TRUE(sat) << "model violates a clause";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnf,
                         ::testing::Range(std::uint64_t{0},
                                          std::uint64_t{40}));

TEST(Sat, MemoryEstimateGrowsWithInstance) {
    Solver s;
    EXPECT_EQ(s.memory_estimate(), 0u);
    const Var x = s.new_var();
    const Var y = s.new_var();
    const std::size_t after_vars = s.memory_estimate();
    EXPECT_GT(after_vars, 0u);
    EXPECT_TRUE(s.add_clause({mk_lit(x), mk_lit(y)}));
    EXPECT_GT(s.memory_estimate(), after_vars);
    EXPECT_FALSE(s.memory_limit_hit());
    EXPECT_EQ(s.memory_limit(), 0u) << "unlimited by default";
}

TEST(Sat, MemoryLimitDegradesToUnknown) {
    // A hard pigeonhole under a budget smaller than its own CNF: solve()
    // must return Unknown with the memory flag set instead of growing the
    // learned-clause database without bound.
    const int n = 7;
    Solver s;
    std::vector<std::vector<Var>> p(static_cast<std::size_t>(n + 1));
    for (int i = 0; i <= n; ++i) {
        for (int j = 0; j < n; ++j) {
            p[static_cast<std::size_t>(i)].push_back(s.new_var());
        }
    }
    for (int i = 0; i <= n; ++i) {
        std::vector<Lit> clause;
        for (int j = 0; j < n; ++j) {
            clause.push_back(mk_lit(
                p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]));
        }
        (void)s.add_clause(clause);
    }
    for (int j = 0; j < n; ++j) {
        for (int i1 = 0; i1 <= n; ++i1) {
            for (int i2 = i1 + 1; i2 <= n; ++i2) {
                (void)s.add_clause(
                    {mk_lit(p[static_cast<std::size_t>(i1)]
                             [static_cast<std::size_t>(j)], true),
                     mk_lit(p[static_cast<std::size_t>(i2)]
                             [static_cast<std::size_t>(j)], true)});
            }
        }
    }
    s.set_memory_limit(1);  // below even the base CNF
    EXPECT_EQ(s.solve(), Result::Unknown);
    EXPECT_TRUE(s.memory_limit_hit());
    EXPECT_GT(s.memory_estimate(), s.memory_limit());
    // Raising the limit makes the same instance solvable again.
    s.set_memory_limit(0);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

}  // namespace
