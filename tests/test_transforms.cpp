#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "aig/cec.hpp"
#include "circuits/generators.hpp"
#include "circuits/registry.hpp"
#include "opt/transform.hpp"
#include "test_helpers.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::opt::apply_candidate;
using bg::opt::check_op;
using bg::opt::check_refactor;
using bg::opt::check_resub;
using bg::opt::check_rewrite;
using bg::opt::CheckResult;
using bg::opt::estimate_depth_delta;
using bg::opt::OpKind;
using bg::opt::OptParams;

TEST(OpKind, PaperEncoding) {
    EXPECT_EQ(bg::opt::op_index(OpKind::Rewrite), 0);
    EXPECT_EQ(bg::opt::op_index(OpKind::Resub), 1);
    EXPECT_EQ(bg::opt::op_index(OpKind::Refactor), 2);
    EXPECT_EQ(bg::opt::op_from_index(0), OpKind::Rewrite);
    EXPECT_EQ(bg::opt::op_from_index(2), OpKind::Refactor);
    EXPECT_EQ(bg::opt::to_string(OpKind::Rewrite), "rw");
    EXPECT_EQ(bg::opt::to_string(OpKind::Resub), "rs");
    EXPECT_EQ(bg::opt::to_string(OpKind::Refactor), "rf");
    EXPECT_THROW((void)bg::opt::op_from_index(9), bg::ContractViolation);
}

TEST(Rewrite, FindsMuxCollapse) {
    // f = c a + !c a == a : rewrite must find gain 3.
    Aig g;
    const Lit c = g.add_pi();
    const Lit a = g.add_pi();
    const Lit t0 = g.and_(c, a);
    const Lit t1 = g.and_(lit_not(c), a);
    const Lit f = g.or_(t0, t1);
    g.add_po(f);
    EXPECT_EQ(g.num_ands(), 3u);
    const auto res = check_rewrite(g, lit_var(f));
    ASSERT_TRUE(res.applicable);
    EXPECT_EQ(res.gain, 3);
    const auto actual = apply_candidate(g, lit_var(f), res.cand);
    EXPECT_EQ(actual, 3);
    g.check_integrity(Aig::CheckLevel::Strict);
    EXPECT_EQ(g.num_ands(), 0u);
    EXPECT_EQ(g.po(0), a);
}

TEST(Rewrite, CheckIsReadOnly) {
    auto g = bg::test::redundant_aig(7, 25, 3, 17);
    const auto slots = g.num_slots();
    const auto ands_count = g.num_ands();
    for (const Var v : g.topo_ands()) {
        (void)check_rewrite(g, v);
    }
    EXPECT_EQ(g.num_slots(), slots);
    EXPECT_EQ(g.num_ands(), ands_count);
    g.check_integrity(Aig::CheckLevel::Strict);
}

TEST(Rewrite, NoFalseApplicability) {
    // On an irredundant structure (single AND), rewrite must not claim a
    // positive-gain transform.
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit x = g.and_(a, b);
    g.add_po(x);
    const auto res = check_rewrite(g, lit_var(x));
    EXPECT_FALSE(res.applicable);
}

TEST(Refactor, FactorsDistributedProduct) {
    // ab + ac: 4 nodes as built; factored a(b+c) needs 2.
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit c = g.add_pi();
    const Lit f = g.or_(g.and_(a, b), g.and_(a, c));
    g.add_po(f);
    EXPECT_EQ(g.num_ands(), 3u);
    const auto res = check_refactor(g, lit_var(f));
    ASSERT_TRUE(res.applicable);
    EXPECT_GE(res.gain, 1);
    Aig before = g;
    apply_candidate(g, lit_var(f), res.cand);
    g.check_integrity(Aig::CheckLevel::Strict);
    EXPECT_EQ(check_equivalence(before, g), CecVerdict::Equivalent);
    EXPECT_LE(g.num_ands(), 2u);
}

TEST(Resub, FindsEqualCone) {
    // Build the same function twice with different shapes; rs replaces one
    // root by the other.
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit c = g.add_pi();
    const Lit left = g.and_(g.and_(a, b), c);   // (ab)c
    const Lit right = g.and_(a, g.and_(b, c));  // a(bc)
    const Lit keep = g.and_(left, g.add_pi());
    g.add_po(keep);
    g.add_po(right);
    const auto res = check_resub(g, lit_var(right));
    ASSERT_TRUE(res.applicable);
    Aig before = g;
    apply_candidate(g, lit_var(right), res.cand);
    g.check_integrity(Aig::CheckLevel::Strict);
    EXPECT_EQ(check_equivalence(before, g), CecVerdict::Equivalent);
    EXPECT_LT(g.num_ands(), before.num_ands());
}

TEST(Resub, ZeroResubPrefersWholeMffc) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit c = g.add_pi();
    // Two re-derivations of a & b & c.
    const Lit x = g.and_(g.and_(a, b), c);
    const Lit y = g.and_(g.and_(a, c), b);
    g.add_po(x);
    g.add_po(y);
    const auto res = check_resub(g, lit_var(y));
    ASSERT_TRUE(res.applicable);
    EXPECT_EQ(res.gain, 2)
        << "both nodes of y's cone should be freed";
}

TEST(AllOps, GainEstimatesAreHonest) {
    // Property: measured gain from apply_candidate is at least the
    // estimate (cascaded strash merges can only help).
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const OpKind op :
             {OpKind::Rewrite, OpKind::Resub, OpKind::Refactor}) {
            auto g = bg::test::redundant_aig(7, 30, 3, seed);
            const auto order = g.topo_ands();
            for (const Var v : order) {
                if (g.is_dead(v)) {
                    continue;
                }
                const auto res = check_op(g, v, op);
                if (!res.applicable) {
                    continue;
                }
                Aig before = g;
                const auto actual = apply_candidate(g, v, res.cand);
                g.check_integrity(Aig::CheckLevel::Strict);
                ASSERT_GE(actual, res.gain)
                    << to_string(op) << " at node " << v << " seed " << seed;
                ASSERT_EQ(check_equivalence(before, g),
                          CecVerdict::Equivalent)
                    << to_string(op) << " broke the function at node " << v;
            }
        }
    }
}

TEST(AllOps, ChecksAreReadOnlyEverywhere) {
    auto g = bg::test::redundant_aig(8, 40, 3, 23);
    const auto text_before = g.to_string();
    const auto slots = g.num_slots();
    for (const Var v : g.topo_ands()) {
        (void)check_op(g, v, OpKind::Rewrite);
        (void)check_op(g, v, OpKind::Resub);
        (void)check_op(g, v, OpKind::Refactor);
    }
    EXPECT_EQ(g.to_string(), text_before);
    EXPECT_EQ(g.num_slots(), slots);
    g.check_integrity(Aig::CheckLevel::Strict);
}

TEST(AllOps, NoneOpNeverApplies) {
    auto g = bg::test::redundant_aig(6, 20, 2, 3);
    for (const Var v : g.topo_ands()) {
        EXPECT_FALSE(check_op(g, v, OpKind::None).applicable);
    }
}

TEST(AllOps, ZeroGainModeAcceptsNeutralMoves) {
    OptParams relaxed;
    relaxed.allow_zero_gain = true;
    auto g = bg::test::redundant_aig(7, 30, 3, 9);
    std::size_t strict_hits = 0;
    std::size_t relaxed_hits = 0;
    for (const Var v : g.topo_ands()) {
        strict_hits += check_rewrite(g, v).applicable ? 1 : 0;
        relaxed_hits += check_rewrite(g, v, relaxed).applicable ? 1 : 0;
    }
    EXPECT_GE(relaxed_hits, strict_hits);
}

class TransformSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(TransformSweep, FullPassPreservesFunction) {
    const auto [seed, op_idx] = GetParam();
    const OpKind op = bg::opt::op_from_index(op_idx);
    auto g = bg::test::redundant_aig(8, 35, 4, seed);
    const Aig original = g;
    for (const Var v : g.topo_ands()) {
        if (g.is_dead(v)) {
            continue;
        }
        const auto res = check_op(g, v, op);
        if (res.applicable) {
            apply_candidate(g, v, res.cand);
        }
    }
    g.check_integrity(Aig::CheckLevel::Strict);
    EXPECT_EQ(check_equivalence(original, g), CecVerdict::Equivalent)
        << "seed " << seed << " op " << to_string(op);
    EXPECT_LE(g.num_ands(), original.num_ands());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndOps, TransformSweep,
    ::testing::Combine(::testing::Values(11ULL, 22ULL, 33ULL, 44ULL, 55ULL),
                       ::testing::Values(0, 1, 2)));

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
    std::uint64_t z = h + 0x9E3779B97F4A7C15ULL + x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Digest of every check result of `g`: each live AND x {rw, rs, rf}, in
/// topological order, over applicability, the size gain, the candidate's
/// depth estimate on fresh levels, the size gain again and the whole
/// candidate recipe — the values and order the recorded digests hash.
std::uint64_t check_result_digest(Aig g) {
    g.update_levels();
    std::uint64_t h = 0;
    const auto add = [&](std::int64_t x) {
        h = mix(h, static_cast<std::uint64_t>(x));
    };
    for (const Var v : g.topo_ands()) {
        for (const OpKind op :
             {OpKind::Rewrite, OpKind::Resub, OpKind::Refactor}) {
            const CheckResult r = check_op(g, v, op);
            add(r.applicable ? 1 : 0);
            add(r.gain);
            add(r.applicable ? estimate_depth_delta(g, v, r.cand) : 0);
            add(r.gain);
            add(static_cast<std::int64_t>(r.cand.operands.size()));
            for (const Var o : r.cand.operands) {
                add(o);
            }
            add(static_cast<std::int64_t>(r.cand.steps.size()));
            for (const auto& s : r.cand.steps) {
                add(s.in0);
                add(s.in1);
            }
            add(r.cand.out);
        }
    }
    return h;
}

TEST(Transforms, CheckResultDigestUnchanged) {
    // Pins every check result bit for bit.  The values were recorded
    // with the straightforward implementations (heap truth tables, the
    // unpruned 2-resub scan, an explicit TFO walk), so any pruning or
    // data-structure change in a check must reproduce them.
    const std::map<std::string, std::uint64_t> expected = {
        {"b07", 0x77251cd1efdfc364ULL},
        {"b08", 0xc455bc6fed1a53f6ULL},
        {"b09", 0xa5da8038e7d0a46eULL},
        {"b10", 0xa9096e55175197d0ULL},
        {"b11", 0x1c03c7300ce177b4ULL},
        {"b12", 0x8db0e75f336574f7ULL},
        {"c2670", 0xe4689a7344e6dc0eULL},
        {"c5315", 0xe3aba85ed00b874bULL},
        {"dense2k", 0xcf900737873e344cULL},
        {"dense2k_10pi", 0x5d87bdcede4c084cULL},
    };
    std::map<std::string, std::uint64_t> actual;
    for (const auto& name : bg::circuits::benchmark_names()) {
        actual[name] = check_result_digest(
            bg::circuits::make_benchmark_scaled(name, 1.0));
    }
    actual["dense2k"] =
        check_result_digest(bg::circuits::dense_random_aig(64, 2000, 1));
    // Ten PIs make wide windows whose 2-resub scan runs out of budget
    // before a match it would otherwise reach, so this digest also pins
    // how the scan spends its budget.
    actual["dense2k_10pi"] =
        check_result_digest(bg::circuits::dense_random_aig(10, 2000, 1));
    for (const auto& [name, digest] : actual) {
        EXPECT_EQ(digest, expected.count(name) ? expected.at(name) : 0)
            << name << " digest 0x" << std::hex << digest;
    }
    EXPECT_EQ(actual.size(), expected.size());
}

TEST(Resub, OperandsNeverInRootTfo) {
    // A divisor in the root's transitive fanout would make the
    // replacement cyclic.  The window only admits side nodes whose
    // fanins lie in the window and differ from the root; this recomputes
    // the whole TFO independently and checks every applicable candidate.
    std::size_t applicable = 0;
    std::vector<char> in_tfo;
    std::vector<Var> stack;
    for (const auto& name : bg::circuits::benchmark_names()) {
        const Aig g = bg::circuits::make_benchmark_scaled(name, 1.0);
        for (const Var v : g.topo_ands()) {
            const CheckResult r = check_resub(g, v);
            if (!r.applicable) {
                continue;
            }
            ++applicable;
            in_tfo.assign(g.num_slots(), 0);
            in_tfo[v] = 1;
            stack.assign(1, v);
            while (!stack.empty()) {
                const Var u = stack.back();
                stack.pop_back();
                for (const Var w : g.fanouts(u)) {
                    if (in_tfo[w] == 0) {
                        in_tfo[w] = 1;
                        stack.push_back(w);
                    }
                }
            }
            for (const Var o : r.cand.operands) {
                EXPECT_EQ(in_tfo[o], 0)
                    << name << ": operand " << o << " of root " << v
                    << " lies in the root's TFO";
            }
        }
    }
    EXPECT_GT(applicable, 0u);
}

}  // namespace
