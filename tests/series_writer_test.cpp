#include "io/series_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "io/csv.h"

namespace cellsync {
namespace {

TEST(SeriesWriter, AccumulatesColumns) {
    Series_writer w("minutes", {0.0, 15.0, 30.0});
    w.add("x1", {1.0, 2.0, 3.0}).add("x2", {4.0, 5.0, 6.0});
    EXPECT_EQ(w.table().column_count(), 3u);
    EXPECT_DOUBLE_EQ(w.table().column("x2")[2], 6.0);
}

TEST(SeriesWriter, RejectsLengthMismatchAndDuplicates) {
    Series_writer w("minutes", {0.0, 15.0});
    EXPECT_THROW(w.add("x", {1.0}), std::invalid_argument);
    w.add("x", {1.0, 2.0});
    EXPECT_THROW(w.add("x", {3.0, 4.0}), std::invalid_argument);
}

TEST(SeriesWriter, RefusesNonFiniteValues) {
    Series_writer w("phi", {0.0, 0.5});
    EXPECT_THROW(w.add("nan", {1.0, std::nan("")}), std::invalid_argument);
    EXPECT_THROW(w.add("inf", {-std::numeric_limits<double>::infinity(), 1.0}),
                 std::invalid_argument);
    EXPECT_EQ(w.table().column_count(), 1u);  // nothing half-added
    w.add("nan", {1.0, 2.0});                 // the name is still free
}

TEST(SeriesWriter, CsvStringIsParseable) {
    Series_writer w("phi", {0.0, 0.5, 1.0});
    w.add("f", {1.0, 2.0, 1.0});
    const Table back = read_csv_string(w.to_csv_string());
    EXPECT_EQ(back.row_count(), 3u);
    EXPECT_DOUBLE_EQ(back.column("f")[1], 2.0);
}

TEST(SeriesWriter, WritesToFile) {
    Series_writer w("t", {1.0, 2.0});
    w.add("y", {10.0, 20.0});
    const std::string path = ::testing::TempDir() + "/cellsync_series_test.csv";
    w.write(path);
    const Table back = read_csv_file(path);
    EXPECT_DOUBLE_EQ(back.column("y")[0], 10.0);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace cellsync
