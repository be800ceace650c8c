#include <gtest/gtest.h>

#include <filesystem>

#include "aig/aig.hpp"
#include "circuits/design_source.hpp"
#include "circuits/generators.hpp"
#include "core/features.hpp"
#include "io/aiger.hpp"

namespace {

namespace fs = std::filesystem;
using namespace bg::aig;  // NOLINT: test brevity

TEST(AigScale, MillionNodeGraphStaysWithinPackedBudget) {
    constexpr std::size_t k_ands = 1'000'000;
    const Aig g = bg::circuits::dense_random_aig(64, k_ands, 42);
    ASSERT_GE(g.num_ands(), k_ands);

    // The acceptance bar: core node storage at most 16 bytes per node.
    EXPECT_LE(Aig::node_bytes(), 16u);
    const auto m = g.memory_stats();
    EXPECT_GE(m.node_array_bytes, g.num_slots() * Aig::node_bytes());
    EXPECT_GT(m.total(), m.node_array_bytes);

    // Traversal machinery holds up at this size.
    const auto order = g.topo_ands();
    EXPECT_EQ(order.size(), g.num_ands());
    EXPECT_GT(g.depth(), 0u);
    g.check_integrity();
}

TEST(AigScale, MillionNodeAigerRoundTripThroughDesignSource) {
    constexpr std::size_t k_ands = 1'000'000;
    const Aig g = bg::circuits::dense_random_aig(64, k_ands, 7);

    const auto dir = fs::temp_directory_path() / "bg_aig_scale_test";
    fs::create_directories(dir);
    const std::string path = (dir / "million.aig").string();
    bg::io::write_aiger_binary_file(g, path);

    const auto loaded = bg::circuits::load_design_spec("file:" + path);
    EXPECT_EQ(loaded.num_ands(), g.compact().num_ands());
    EXPECT_EQ(loaded.num_pis(), g.num_pis());
    EXPECT_EQ(loaded.num_pos(), g.num_pos());

    // Feature-extraction CSR build — the GNN ingestion path — must scale.
    const auto csr = bg::core::build_csr(loaded);
    EXPECT_EQ(csr.offsets.size(), loaded.num_slots() + 1);
    EXPECT_GT(csr.neighbors.size(), 2 * loaded.num_ands());

    std::error_code ec;
    fs::remove_all(dir, ec);
}

}  // namespace
