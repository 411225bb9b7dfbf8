#include "core/profile_output.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/csv.h"
#include "numerics/matrix.h"
#include "numerics/rng.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A fresh directory per test, removed afterwards.
class ProfileOutput : public ::testing::Test {
  protected:
    void SetUp() override {
        dir_ = fs::path(::testing::TempDir()) /
               ("cellsync_profile_output_" +
                std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string& name) const { return (dir_ / name).string(); }

    fs::path dir_;
};

/// Estimates on one basis with deterministic random coefficients.
std::vector<Single_cell_estimate> make_estimates(std::size_t count) {
    const auto basis = std::make_shared<Natural_spline_basis>(18);
    Rng rng(1105);
    std::vector<Single_cell_estimate> estimates;
    for (std::size_t g = 0; g < count; ++g) {
        Vector alpha(basis->size());
        for (double& a : alpha) {
            a = rng.uniform(-1.0, 3.0) * std::pow(10.0, rng.uniform(-8.0, 8.0));
        }
        estimates.emplace_back(basis, std::move(alpha));
    }
    return estimates;
}

/// Three files: sampled estimates with lambda lines, given values, and a
/// phi-only file.
std::vector<Profile_file> make_files(const std::vector<Single_cell_estimate>& estimates,
                                     const std::string& prefix) {
    std::vector<Profile_file> files(3);
    files[0].path = prefix + "sampled.csv";
    files[0].phi = linspace(0.0, 1.0, 201);
    for (std::size_t g = 0; g < estimates.size(); ++g) {
        const std::string label = "gene" + std::to_string(g);
        files[0].columns.push_back({label, &estimates[g], {}});
        files[0].lambdas.emplace_back(label, 1e-3 * static_cast<double>(g + 1) / 7.0);
    }
    files[1].path = prefix + "values.csv";
    files[1].phi = linspace(0.0, 1.0, 37);
    for (std::size_t c = 0; c < 5; ++c) {
        Vector values(37);
        for (std::size_t r = 0; r < values.size(); ++r) {
            values[r] = std::sin(static_cast<double>(r * (c + 1))) * 1e3;
        }
        files[1].columns.push_back({"value" + std::to_string(c), nullptr, std::move(values)});
    }
    files[1].lambdas.emplace_back("value0", 0.1);
    files[2].path = prefix + "empty.csv";
    files[2].phi = linspace(0.0, 1.0, 3);
    return files;
}

/// The serial reference: lambda lines, then write_csv of the whole table
/// with every estimate sampled through one grid-design mat-vec.
std::string reference_bytes(const Profile_file& file) {
    std::ostringstream out;
    for (const auto& [gene, lambda] : file.lambdas) {
        char buffer[48];
        std::snprintf(buffer, sizeof(buffer), "%.17g", lambda);
        out << "# lambda:" << gene << "=" << buffer << "\n";
    }
    Table table;
    table.add_column("phi", file.phi);
    for (const Profile_column& column : file.columns) {
        table.add_column(column.label,
                         column.estimate != nullptr
                             ? column.estimate->basis().design_matrix(file.phi) *
                                   column.estimate->coefficients()
                             : column.values);
    }
    write_csv(out, table);
    return out.str();
}

TEST_F(ProfileOutput, WritesTheSerialBytesAtEveryPoolSize) {
    const std::vector<Single_cell_estimate> estimates = make_estimates(40);
    const std::vector<Profile_file> expected_files = make_files(estimates, path(""));
    for (const std::size_t threads : {1u, 3u, 4u}) {
        Worker_pool pool(threads);
        std::vector<std::size_t> written;
        write_profile_files(make_files(estimates, path("")), pool,
                            [&](std::size_t k) { written.push_back(k); });
        EXPECT_EQ(written, (std::vector<std::size_t>{0, 1, 2})) << threads;
        for (const Profile_file& file : expected_files) {
            EXPECT_EQ(read_file(file.path), reference_bytes(file))
                << file.path << " at " << threads << " threads";
        }
    }
    // A sampled column equals the estimate's own sampling.
    const Table back = read_csv_file(expected_files[0].path);
    EXPECT_EQ(back.column("gene3"), estimates[3].sample(linspace(0.0, 1.0, 201)));
}

TEST_F(ProfileOutput, NonFiniteColumnThrowsBeforeAnyFileIsTouched) {
    const std::vector<Single_cell_estimate> estimates = make_estimates(3);
    std::vector<Profile_file> files = make_files(estimates, path(""));
    {
        std::ofstream existing(files[0].path);
        existing << "sentinel\n";
    }
    files[1].columns[2].values[30] = std::numeric_limits<double>::quiet_NaN();
    Worker_pool pool(3);
    try {
        write_profile_files(std::move(files), pool);
        FAIL() << "a NaN column was written";
    } catch (const std::runtime_error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("values.csv"), std::string::npos) << message;
        EXPECT_NE(message.find("'value2' row 30"), std::string::npos) << message;
    }
    EXPECT_EQ(read_file(path("sampled.csv")), "sentinel\n");
    EXPECT_FALSE(fs::exists(path("values.csv")));
    EXPECT_FALSE(fs::exists(path("empty.csv")));
}

TEST_F(ProfileOutput, DuplicateLabelIsRejected) {
    std::vector<Profile_file> files(1);
    files[0].path = path("dup.csv");
    files[0].phi = {0.0, 1.0};
    files[0].columns.push_back({"a", nullptr, {1.0, 2.0}});
    files[0].columns.push_back({"a", nullptr, {3.0, 4.0}});
    Worker_pool pool(2);
    EXPECT_THROW(write_profile_files(std::move(files), pool), std::invalid_argument);
    EXPECT_FALSE(fs::exists(path("dup.csv")));
}

TEST_F(ProfileOutput, FailedWriteIsReported) {
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    std::vector<Profile_file> files(1);
    files[0].path = "/dev/full";
    files[0].phi = {0.0, 0.5, 1.0};
    files[0].columns.push_back({"a", nullptr, {1.0, 2.0, 3.0}});
    Worker_pool pool(2);
    bool called = false;
    try {
        write_profile_files(std::move(files), pool, [&](std::size_t) { called = true; });
        FAIL() << "a write to /dev/full was reported as success";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("write failed"), std::string::npos) << e.what();
    }
    EXPECT_FALSE(called);
}

}  // namespace
}  // namespace cellsync
