#include "io/table.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace cellsync {
namespace {

TEST(Table, EmptyTable) {
    const Table t;
    EXPECT_EQ(t.column_count(), 0u);
    EXPECT_EQ(t.row_count(), 0u);
    EXPECT_FALSE(t.has_column("x"));
}

TEST(Table, AddAndRetrieveColumns) {
    Table t;
    t.add_column("time", {0.0, 1.0, 2.0});
    t.add_column("value", {5.0, 6.0, 7.0});
    EXPECT_EQ(t.column_count(), 2u);
    EXPECT_EQ(t.row_count(), 3u);
    EXPECT_TRUE(t.has_column("time"));
    EXPECT_DOUBLE_EQ(t.column("value")[1], 6.0);
    EXPECT_DOUBLE_EQ(t.column(0)[2], 2.0);
    EXPECT_EQ(t.names()[1], "value");
}

TEST(Table, DuplicateNameRejected) {
    Table t;
    t.add_column("x", {1.0});
    EXPECT_THROW(t.add_column("x", {2.0}), std::invalid_argument);
}

TEST(Table, LengthMismatchRejected) {
    Table t;
    t.add_column("x", {1.0, 2.0});
    EXPECT_THROW(t.add_column("y", {1.0}), std::invalid_argument);
}

TEST(Table, MissingColumnThrows) {
    Table t;
    t.add_column("x", {1.0});
    EXPECT_THROW(t.column("nope"), std::invalid_argument);
    EXPECT_THROW(t.column(5), std::out_of_range);
}

TEST(Table, WideTableKeepsOrderAndFindsEveryColumnByName) {
    // A genome-scale panel: the name index must keep insertion order,
    // find every column and reject a duplicate with the same message.
    constexpr std::size_t columns = 20000;
    Table t;
    for (std::size_t c = 0; c < columns; ++c) {
        // Names that sort differently from their insertion order.
        t.add_column("gene" + std::to_string((c * 7919) % columns), {static_cast<double>(c)});
    }
    ASSERT_EQ(t.column_count(), columns);
    for (std::size_t c = 0; c < columns; ++c) {
        const std::string name = "gene" + std::to_string((c * 7919) % columns);
        EXPECT_EQ(t.names()[c], name);
        EXPECT_TRUE(t.has_column(name));
        EXPECT_EQ(t.column(name)[0], static_cast<double>(c));
    }
    EXPECT_FALSE(t.has_column("gene" + std::to_string(columns)));
    try {
        t.add_column("gene5", {0.0});
        FAIL() << "duplicate accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "Table: duplicate column name 'gene5'");
    }
    try {
        t.column("absent");
        FAIL() << "missing column found";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "Table: no column named 'absent'");
    }
    EXPECT_EQ(t.column_count(), columns);  // a rejected add leaves no trace
}

TEST(Table, RejectedLengthLeavesTheNameFree) {
    Table t;
    t.add_column("x", {1.0, 2.0});
    EXPECT_THROW(t.add_column("y", {1.0}), std::invalid_argument);
    EXPECT_FALSE(t.has_column("y"));
    t.add_column("y", {3.0, 4.0});
    EXPECT_EQ(t.column("y")[1], 4.0);
}

}  // namespace
}  // namespace cellsync
