#include <gtest/gtest.h>

#include "aig/cec.hpp"
#include "io/aiger.hpp"
#include "test_helpers.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity

TEST(AigerBinary, RoundTripRandomGraphs) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        const Aig g = bg::test::random_aig(6, 40, 3, seed);
        const auto bytes = bg::io::write_aiger_binary_string(g);
        const Aig h = bg::io::read_aiger_binary_string(bytes);
        EXPECT_EQ(h.num_pis(), g.num_pis());
        EXPECT_EQ(h.num_pos(), g.num_pos());
        EXPECT_EQ(check_equivalence(g, h), CecVerdict::Equivalent)
            << "seed " << seed;
    }
}

TEST(AigerBinary, BinaryIsSmallerThanAscii) {
    const Aig g = bg::test::random_aig(8, 200, 4, 9);
    const auto ascii = bg::io::write_aiger_string(g);
    const auto binary = bg::io::write_aiger_binary_string(g);
    EXPECT_LT(binary.size(), ascii.size());
}

TEST(AigerBinary, KnownEncoding) {
    // Single AND of two inputs: header, one output line, deltas 2,2
    // (lhs=6, rhs0=4, rhs1=2).
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    g.add_po(g.and_(a, b));
    const auto bytes = bg::io::write_aiger_binary_string(g);
    const std::string expected_header = "aig 3 2 0 1 1\n6\n";
    ASSERT_GT(bytes.size(), expected_header.size());
    EXPECT_EQ(bytes.substr(0, expected_header.size()), expected_header);
    EXPECT_EQ(static_cast<unsigned char>(bytes[expected_header.size()]), 2u);
    EXPECT_EQ(static_cast<unsigned char>(bytes[expected_header.size() + 1]),
              2u);
}

TEST(AigerBinary, MultiByteDeltas) {
    // Force deltas >= 128: a wide AND tree makes late nodes reference
    // early literals.
    Aig g;
    const auto pis = g.add_pis(80);
    Lit acc = pis[0];
    for (std::size_t i = 1; i < pis.size(); ++i) {
        acc = g.and_(acc, pis[i]);
    }
    g.add_po(acc);
    const auto bytes = bg::io::write_aiger_binary_string(g);
    const Aig h = bg::io::read_aiger_binary_string(bytes);
    EXPECT_EQ(h.num_ands(), g.num_ands());
    EXPECT_EQ(check_equivalence(g, h), CecVerdict::ProbablyEquivalent);
}

TEST(AigerBinary, ComplementedOutputsSurvive) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    g.add_po(lit_not(g.and_(a, lit_not(b))));
    g.add_po(lit_true);
    const Aig h =
        bg::io::read_aiger_binary_string(bg::io::write_aiger_binary_string(g));
    EXPECT_EQ(check_equivalence(g, h), CecVerdict::Equivalent);
    EXPECT_EQ(h.po(1), lit_true);
}

TEST(AigerBinary, RejectsLatches) {
    EXPECT_THROW((void)bg::io::read_aiger_binary_string("aig 1 0 1 0 0\n"),
                 std::runtime_error);
}

TEST(AigerBinary, RejectsTruncatedDelta) {
    // Header promises one AND but the delta block is empty.
    EXPECT_THROW(
        (void)bg::io::read_aiger_binary_string("aig 3 2 0 1 1\n6\n"),
        std::runtime_error);
}

TEST(AigerBinary, RejectsBadHeader) {
    EXPECT_THROW((void)bg::io::read_aiger_binary_string("aag 1 1 0 0 0\n2\n"),
                 std::runtime_error);
    // M != I + A.
    EXPECT_THROW((void)bg::io::read_aiger_binary_string("aig 9 2 0 0 1\n"),
                 std::runtime_error);
}

TEST(AigerBinary, RejectsMalformedOutputLine) {
    // Output lines hold exactly one unsigned literal, as in the ASCII
    // reader; anything else is a typed reader error.
    for (const char* doc : {
             "aig 1 1 0 1 0\n2junk\n",  // trailing garbage
             "aig 1 1 0 1 0\n 3 7\n",   // two literals
             "aig 1 1 0 1 0\nxyz\n",    // not a number
             "aig 1 1 0 1 0\n99999999999999999999999\n",  // oversized
         }) {
        EXPECT_THROW((void)bg::io::read_aiger_binary_string(doc),
                     std::runtime_error)
            << doc;
    }
}

TEST(AigerBinary, AutoDetectionByMagic) {
    const Aig g = bg::test::random_aig(5, 25, 2, 3);
    const auto dir = std::filesystem::temp_directory_path();
    const auto ascii_path = dir / "bg_auto_test.aag";
    const auto binary_path = dir / "bg_auto_test.aig";
    bg::io::write_aiger_file(g, ascii_path);
    bg::io::write_aiger_binary_file(g, binary_path);
    const Aig ga = bg::io::read_aiger_auto_file(ascii_path);
    const Aig gb = bg::io::read_aiger_auto_file(binary_path);
    EXPECT_EQ(check_equivalence(g, ga), CecVerdict::Equivalent);
    EXPECT_EQ(check_equivalence(g, gb), CecVerdict::Equivalent);
    std::filesystem::remove(ascii_path);
    std::filesystem::remove(binary_path);
}

TEST(AigerBinary, CrossFormatAgreement) {
    // ascii -> graph -> binary -> graph: same interface, same function,
    // same node count (writers may topologically reorder, so the check is
    // semantic rather than byte-exact).
    const Aig g = bg::test::redundant_aig(7, 30, 3, 12);
    const auto ascii1 = bg::io::write_aiger_string(g);
    const Aig first = bg::io::read_aiger_string(ascii1);
    const Aig via_binary = bg::io::read_aiger_binary_string(
        bg::io::write_aiger_binary_string(first));
    EXPECT_EQ(via_binary.num_pis(), first.num_pis());
    EXPECT_EQ(via_binary.num_pos(), first.num_pos());
    EXPECT_EQ(via_binary.num_ands(), first.num_ands());
    EXPECT_EQ(check_equivalence(first, via_binary), CecVerdict::Equivalent);
}

}  // namespace
