#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "aig/cec.hpp"
#include "circuits/design_source.hpp"
#include "circuits/registry.hpp"
#include "core/flow_engine.hpp"
#include "io/aiger.hpp"
#include "verify/portfolio.hpp"

namespace {

namespace fs = std::filesystem;
using bg::circuits::DesignOrigin;
using bg::circuits::DesignSourceError;
using bg::circuits::resolve_design_spec;
using bg::circuits::resolve_design_specs;
using bg::circuits::resolve_single_design;

/// Temp directory fixture: every file-backed test gets a private tree.
class DesignSourceTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("bg_design_source_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string path(const std::string& leaf) const {
        return (dir_ / leaf).string();
    }

    fs::path dir_;
};

// ---------------------------------------------------------------------------
// Registry-backed specs
// ---------------------------------------------------------------------------

TEST_F(DesignSourceTest, RegistryNameResolves) {
    const auto r = resolve_design_spec("b07");
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].name, "b07");
    EXPECT_EQ(r[0].origin, DesignOrigin::Registry);
    const auto g = r[0].load();
    EXPECT_EQ(g.num_ands(),
              bg::circuits::make_benchmark("b07").num_ands());
}

TEST_F(DesignSourceTest, ScaleSuffixAndDefaultScale) {
    const auto r = resolve_design_spec("b07@0.5");
    ASSERT_EQ(r.size(), 1u);
    EXPECT_DOUBLE_EQ(r[0].scale, 0.5);
    // An explicit @scale wins over the command-level --scale.
    const auto r2 = resolve_design_spec("b07@0.5", 0.25);
    EXPECT_DOUBLE_EQ(r2[0].scale, 0.5);
    const auto r3 = resolve_design_spec("b07", 0.25);
    EXPECT_DOUBLE_EQ(r3[0].scale, 0.25);
}

TEST_F(DesignSourceTest, RegistryGlobExpandsInRegistryOrder) {
    const auto r = resolve_design_spec("b0?");
    ASSERT_EQ(r.size(), 3u);  // b07 b08 b09
    EXPECT_EQ(r[0].name, "b07");
    EXPECT_EQ(r[1].name, "b08");
    EXPECT_EQ(r[2].name, "b09");
}

TEST_F(DesignSourceTest, AllFlagPrependsWholeRegistry) {
    const auto r = resolve_design_specs({}, /*all=*/true, 1.0);
    EXPECT_EQ(r.size(), bg::circuits::benchmark_names().size());
}

TEST_F(DesignSourceTest, UnknownNameAndEmptyGlobThrow) {
    EXPECT_THROW(resolve_design_spec("nosuchdesign"), DesignSourceError);
    EXPECT_THROW(resolve_design_spec("z*"), DesignSourceError);
    EXPECT_THROW(resolve_design_spec("b07@banana"), DesignSourceError);
    EXPECT_THROW(resolve_design_spec("b07@-1"), DesignSourceError);
    // Scales make_benchmark_scaled cannot convert to node counts.
    EXPECT_THROW(resolve_design_spec("b07@nan"), DesignSourceError);
    EXPECT_THROW(resolve_design_spec("b07@inf"), DesignSourceError);
    EXPECT_THROW(resolve_design_spec("b07@1e300"), DesignSourceError);
    EXPECT_THROW(
        resolve_design_spec("b07", std::numeric_limits<double>::quiet_NaN()),
        DesignSourceError);
}

// ---------------------------------------------------------------------------
// File-backed specs
// ---------------------------------------------------------------------------

TEST_F(DesignSourceTest, FileSpecLoadsAiger) {
    const auto g = bg::circuits::make_benchmark_scaled("b08", 0.3);
    bg::io::write_aiger_binary_file(g, path("d.aig"));
    const auto r = resolve_design_spec("file:" + path("d.aig"));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].origin, DesignOrigin::File);
    const auto loaded = r[0].load();
    EXPECT_EQ(loaded.num_pis(), g.num_pis());
    EXPECT_EQ(loaded.num_pos(), g.num_pos());
    // write_aiger compacts, so compare fingerprints of compacted forms.
    EXPECT_EQ(bg::aig::structural_fingerprint(loaded),
              bg::aig::structural_fingerprint(g.compact()));
}

TEST_F(DesignSourceTest, BareNetlistPathStillWorks) {
    const auto g = bg::circuits::make_benchmark_scaled("b09", 0.3);
    bg::io::write_aiger_file(g, path("d.aag"));
    const auto r = resolve_design_spec(path("d.aag"));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].origin, DesignOrigin::File);
    EXPECT_EQ(r[0].load().num_pis(), g.num_pis());
}

TEST_F(DesignSourceTest, FileGlobExpandsSorted) {
    for (const char* name : {"b07", "b08", "b09"}) {
        bg::io::write_aiger_file(
            bg::circuits::make_benchmark_scaled(name, 0.2),
            path(std::string(name) + ".aag"));
    }
    std::ofstream(path("notes.txt")) << "not a netlist\n";
    const auto r = resolve_design_spec("file:" + path("*.aag"));
    ASSERT_EQ(r.size(), 3u);
    EXPECT_TRUE(r[0].name.ends_with("b07.aag"));
    EXPECT_TRUE(r[1].name.ends_with("b08.aag"));
    EXPECT_TRUE(r[2].name.ends_with("b09.aag"));
}

TEST_F(DesignSourceTest, FileErrorsAreDesignSourceErrors) {
    // Missing file.
    EXPECT_THROW(resolve_single_design("file:" + path("missing.aig")).load(),
                 DesignSourceError);
    // Glob over a directory that does not exist.
    EXPECT_THROW(resolve_design_spec("file:" + path("nodir") + "/*.aig"),
                 DesignSourceError);
    // Glob matching nothing.
    EXPECT_THROW(resolve_design_spec("file:" + path("*.aig")),
                 DesignSourceError);
    // Malformed content.
    std::ofstream(path("bad.aag")) << "garbage header\n";
    EXPECT_THROW(resolve_single_design(path("bad.aag")).load(),
                 DesignSourceError);
    // Empty file: body.
    EXPECT_THROW(resolve_design_spec("file:"), DesignSourceError);
}

TEST_F(DesignSourceTest, SingleDesignRejectsMultiMatches) {
    bg::io::write_aiger_file(bg::circuits::make_benchmark_scaled("b07", 0.2),
                             path("a.aag"));
    bg::io::write_aiger_file(bg::circuits::make_benchmark_scaled("b08", 0.2),
                             path("b.aag"));
    EXPECT_THROW(resolve_single_design("file:" + path("*.aag")),
                 DesignSourceError);
}

// ---------------------------------------------------------------------------
// AIGER file -> flow -> verify round trip (the workload path)
// ---------------------------------------------------------------------------

TEST_F(DesignSourceTest, FileBackedFlowRoundTripVerifies) {
    const auto g = bg::circuits::make_benchmark_scaled("b10", 0.5);
    bg::io::write_aiger_binary_file(g, path("b10.aig"));

    auto jobs = bg::core::jobs_from_specs({"file:" + path("b10.aig")},
                                          /*all=*/false, 1.0);
    ASSERT_EQ(jobs.size(), 1u);

    bg::core::ModelConfig mc;
    mc.sage_dims = {12, 12, 8};
    mc.mlp_dims = {16, 8, 1};
    mc.dropout = 0.0F;
    mc.seed = 3;
    const bg::core::BoolGebraModel model{mc};
    bg::core::FlowConfig fc;
    fc.num_samples = 12;
    fc.top_k = 3;
    fc.seed = 9;
    fc.verify = true;  // portfolio-CEC the best candidate inside the flow
    const auto res =
        bg::core::run_design_flow(jobs[0], model, fc, 1, nullptr);
    EXPECT_GT(res.original_size, 0u);
    ASSERT_TRUE(res.verification.has_value());
    EXPECT_NE(res.verification->verdict,
              bg::aig::CecVerdict::NotEquivalent);
}

TEST_F(DesignSourceTest, JobsFromSpecsMixesRegistryAndFiles) {
    bg::io::write_aiger_file(bg::circuits::make_benchmark_scaled("b07", 0.2),
                             path("x.aag"));
    const auto jobs = bg::core::jobs_from_specs(
        {"b08", "file:" + path("x.aag")}, /*all=*/false, 0.2);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].name, "b08");
    EXPECT_TRUE(jobs[1].name.ends_with("x.aag"));
    EXPECT_GT(jobs[0].design.num_ands(), 0u);
    EXPECT_GT(jobs[1].design.num_ands(), 0u);
}

}  // namespace
