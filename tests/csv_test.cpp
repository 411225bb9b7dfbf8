#include "io/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "numerics/rng.h"

namespace cellsync {
namespace {

TEST(Csv, ParsesSimpleTable) {
    const Table t = read_csv_string("time,value\n0,1.5\n15,2.5\n30,3.5\n");
    EXPECT_EQ(t.column_count(), 2u);
    EXPECT_EQ(t.row_count(), 3u);
    EXPECT_DOUBLE_EQ(t.column("time")[1], 15.0);
    EXPECT_DOUBLE_EQ(t.column("value")[2], 3.5);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
    const Table t = read_csv_string(
        "# provenance comment\n\ntime,value\n# interior comment\n0,1\n\n1,2\n");
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Csv, TrimsWhitespaceAroundFields) {
    const Table t = read_csv_string("a , b\n 1.0 ,\t2.0 \n");
    EXPECT_DOUBLE_EQ(t.column("a")[0], 1.0);
    EXPECT_DOUBLE_EQ(t.column("b")[0], 2.0);
}

TEST(Csv, ScientificNotationAndNegatives) {
    const Table t = read_csv_string("x\n-1.5e-3\n2E4\n");
    EXPECT_DOUBLE_EQ(t.column("x")[0], -1.5e-3);
    EXPECT_DOUBLE_EQ(t.column("x")[1], 2e4);
}

TEST(Csv, LeadingPlusSignAccepted) {
    // Regression: std::from_chars rejects '+'-signed doubles, so "+1.5"
    // used to throw even though it is a standard numeric spelling.
    const Table t = read_csv_string("x\n+1.5\n+2E4\n+.25\n+1e-3\n");
    EXPECT_DOUBLE_EQ(t.column("x")[0], 1.5);
    EXPECT_DOUBLE_EQ(t.column("x")[1], 2e4);
    EXPECT_DOUBLE_EQ(t.column("x")[2], 0.25);
    EXPECT_DOUBLE_EQ(t.column("x")[3], 1e-3);
}

TEST(Csv, BarePlusAndSignPairsRejected) {
    EXPECT_THROW(read_csv_string("x\n+\n"), std::runtime_error);
    EXPECT_THROW(read_csv_string("x\n+-1\n"), std::runtime_error);
    EXPECT_THROW(read_csv_string("x\n++1\n"), std::runtime_error);
}

TEST(Csv, NonFiniteValuesRejectedWithClearMessage) {
    for (const char* bad : {"inf", "-inf", "+inf", "nan", "-nan", "INF", "NaN"}) {
        try {
            read_csv_string(std::string("x\n") + bad + "\n");
            FAIL() << "expected non-finite rejection for '" << bad << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
                << "message for '" << bad << "' was: " << e.what();
        }
    }
}

TEST(Csv, OutOfRangeValueRejected) {
    try {
        read_csv_string("x\n1e999\n");
        FAIL() << "expected out-of-range rejection";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("range"), std::string::npos);
    }
}

TEST(Csv, RaggedRowReportsLineNumber) {
    try {
        read_csv_string("a,b\n1,2\n3\n");
        FAIL() << "expected ragged-row error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
}

TEST(Csv, NonNumericFieldReportsFieldText) {
    try {
        read_csv_string("a\nhello\n");
        FAIL() << "expected non-numeric error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("hello"), std::string::npos);
    }
}

TEST(Csv, EmptyInputRejected) {
    EXPECT_THROW(read_csv_string(""), std::runtime_error);
    EXPECT_THROW(read_csv_string("# only a comment\n"), std::runtime_error);
}

TEST(Csv, EmptyHeaderFieldRejected) {
    EXPECT_THROW(read_csv_string("a,,c\n1,2,3\n"), std::runtime_error);
}

TEST(Csv, MissingFileThrows) {
    EXPECT_THROW(read_csv_file("/nonexistent/path/data.csv"), std::runtime_error);
}

TEST(Csv, WriteReadRoundTrip) {
    Table t;
    t.add_column("time", {0.0, 15.0, 30.0});
    t.add_column("value", {1.23456789012345, -2.5, 3.75e-8});
    std::ostringstream out;
    write_csv(out, t);
    const Table back = read_csv_string(out.str());
    EXPECT_EQ(back.column_count(), 2u);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_DOUBLE_EQ(back.column("time")[r], t.column("time")[r]);
        EXPECT_DOUBLE_EQ(back.column("value")[r], t.column("value")[r]);
    }
}

TEST(Csv, WriteMatchesStreamFormattingByteForByte) {
    // write_csv formats with to_chars; its bytes must equal the
    // `ostream << setprecision(17)` output it replaced for every finite
    // value: signed zero, subnormals, extremes, inexact decimals, integers.
    Vector a = {-0.0,   0.0,    5e-324, 2.5e-310, 1e308,  -1e308, 0.1,
                1.0 / 3.0, -2.0 / 3.0, 1.0, -7.0, 42.0, 1e16, 123456789012345678.0,
                1e-5,   1e-4,   0.30000000000000004, 1e21, 1e22, 0.001,
                std::numeric_limits<double>::max(), std::numeric_limits<double>::min()};
    // Plus a deterministic sweep of raw bit patterns across all exponents.
    Rng rng(2011);
    while (a.size() < 4096) {
        const double v = std::bit_cast<double>(rng.engine()());
        if (std::isfinite(v)) a.push_back(v);
    }
    Vector b(a.rbegin(), a.rend());
    Table t;
    t.add_column("a", a);
    t.add_column("b", b);

    std::ostringstream expected;
    expected << "a,b\n" << std::setprecision(17);
    for (std::size_t r = 0; r < a.size(); ++r) expected << a[r] << "," << b[r] << "\n";
    std::ostringstream got;
    write_csv(got, t);
    EXPECT_EQ(got.str(), expected.str());
}

/// Values at the formatter's edges: signed zeros, subnormals, the
/// fixed/exponent switch of "%.17g" at 1e-5/1e-4 and 1e16/1e17, and a
/// 17-digit tie.
Vector format_edge_values() {
    Vector values = {0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.5e-310,
                     std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
                     2251799813685247.75, -2251799813685247.75, 0.1, 1.0 / 3.0};
    for (const double edge : {1e-5, 1e-4, 1e16, 1e17}) {
        values.push_back(std::nextafter(edge, 0.0));
        values.push_back(edge);
        values.push_back(std::nextafter(edge, 1e300));
        values.push_back(-edge);
    }
    return values;
}

Table format_test_table(std::size_t rows, std::size_t columns) {
    const Vector edges = format_edge_values();
    Rng rng(rows * 1000 + columns);
    Table t;
    for (std::size_t c = 0; c < columns; ++c) {
        Vector column(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t k = r * columns + c;
            if (k < edges.size()) {
                column[r] = edges[k];
            } else if (k % 8 == 0) {
                do {
                    column[r] = std::bit_cast<double>(rng.engine()());
                } while (!std::isfinite(column[r]));
            } else {
                column[r] = rng.uniform(-1.0, 20.0);  // profile-like magnitudes
            }
        }
        t.add_column("col" + std::to_string(c), std::move(column));
    }
    return t;
}

TEST(Csv, RowBlocksConcatenateToWriteCsvAtEveryBlockSize) {
    for (const std::size_t rows : {0u, 1u, 2u, 201u}) {
        for (const std::size_t columns : {1u, 300u}) {
            const Table t = format_test_table(rows, columns);
            std::ostringstream whole;
            write_csv(whole, t);
            std::string header;
            csv_format_header(t, header);
            ASSERT_EQ(whole.str().compare(0, header.size(), header), 0);
            const std::string body = whole.str().substr(header.size());
            for (std::size_t block = 1; block <= std::max<std::size_t>(rows, 1); ++block) {
                std::string blocks;
                for (std::size_t begin = 0; begin < rows; begin += block) {
                    csv_format_rows(t, begin, std::min(begin + block, rows), blocks);
                }
                ASSERT_EQ(blocks, body) << rows << " rows x " << columns
                                        << " columns, block " << block;
            }
        }
    }
    // The edge values are where the formatter's output changes shape.
    std::string row;
    Table tie;
    tie.add_column("x", {2251799813685247.75, -0.0, 5e-324, 1e-5, 1e17});
    csv_format_rows(tie, 0, 5, row);
    EXPECT_EQ(row, "2251799813685247.8\n-0\n4.9406564584124654e-324\n1.0000000000000001e-05\n"
                   "1e+17\n");
}

TEST(Csv, FormatRowsRejectsARangeOutsideTheTable) {
    Table t;
    t.add_column("x", {1.0, 2.0});
    std::string out;
    EXPECT_THROW(csv_format_rows(t, 1, 3, out), std::out_of_range);
    EXPECT_THROW(csv_format_rows(t, 2, 1, out), std::out_of_range);
    csv_format_rows(t, 2, 2, out);
    EXPECT_TRUE(out.empty());
}

TEST(Csv, WriteRefusesNonFiniteBeforeWritingAByte) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        Table t;
        t.add_column("time", {0.0, 15.0, 30.0});
        t.add_column("value", {1.0, 2.0, bad});
        std::ostringstream out;
        try {
            write_csv(out, t);
            ADD_FAILURE() << "write_csv accepted " << bad;
        } catch (const std::runtime_error& e) {
            const std::string message = e.what();
            EXPECT_NE(message.find("'value'"), std::string::npos) << message;
            EXPECT_NE(message.find("row 2"), std::string::npos) << message;
        }
        EXPECT_TRUE(out.str().empty()) << bad;
    }
    // A finite table still round-trips.
    Table ok;
    ok.add_column("value", {1.0, -2.5, 3.75e-8});
    std::ostringstream out;
    write_csv(out, ok);
    EXPECT_EQ(read_csv_string(out.str()).column("value")[2], 3.75e-8);
}

TEST(Csv, FileRoundTrip) {
    Table t;
    t.add_column("x", {1.0, 2.0});
    const std::string path = ::testing::TempDir() + "/cellsync_csv_test.csv";
    write_csv_file(path, t);
    const Table back = read_csv_file(path);
    EXPECT_DOUBLE_EQ(back.column("x")[1], 2.0);
    std::remove(path.c_str());
}

/// The original field splitter, kept as the oracle: std::getline over an
/// istringstream on ',', each field trimmed of " \t\r", plus one empty
/// field for a trailing ','.
std::vector<std::string> getline_split_oracle(const std::string& line) {
    const auto trim = [](const std::string& f) {
        const auto begin = f.find_first_not_of(" \t\r");
        if (begin == std::string::npos) return std::string();
        const auto end = f.find_last_not_of(" \t\r");
        return f.substr(begin, end - begin + 1);
    };
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ss(line);
    while (std::getline(ss, field, ',')) fields.push_back(trim(field));
    if (!line.empty() && line.back() == ',') fields.push_back("");
    return fields;
}

void expect_split_matches_oracle(const std::string& line) {
    std::vector<std::string_view> fields = {"stale"};  // must be cleared
    csv_split_fields(line, fields);
    const std::vector<std::string> expected = getline_split_oracle(line);
    ASSERT_EQ(fields.size(), expected.size()) << "line '" << line << "'";
    for (std::size_t f = 0; f < fields.size(); ++f) {
        EXPECT_EQ(fields[f], expected[f]) << "line '" << line << "' field " << f;
    }
}

TEST(Csv, SplitFieldsMatchesGetlineOracleOnEdgeCases) {
    for (const char* line : {"", ",", ",,", "a", "a,", ",a", "a,,b", " a ,\tb\r", " ",
                             "\t,\r", "a , b , ", "#x,y", "1e3,-2, +3 ,"}) {
        expect_split_matches_oracle(line);
    }
    std::vector<std::string_view> fields;
    csv_split_fields(" a ,\tb\r", fields);
    ASSERT_EQ(fields.size(), 2u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "b");
    csv_split_fields("a,", fields);
    ASSERT_EQ(fields.size(), 2u);
    EXPECT_EQ(fields[1], "");
    csv_split_fields("", fields);
    EXPECT_TRUE(fields.empty());
}

TEST(Csv, SplitFieldsMatchesGetlineOracleOnRandomLines) {
    // Lines drawn from the characters that matter to the splitter: the
    // separator, the three trimmed blanks, other whitespace, and text.
    const std::string alphabet = ",,, \t\r\n\v#a1.-+e";
    Rng rng(20110605);
    for (int trial = 0; trial < 20000; ++trial) {
        std::string line(rng.index(12), ' ');
        for (char& c : line) c = alphabet[rng.index(alphabet.size())];
        expect_split_matches_oracle(line);
        if (HasFailure()) return;
    }
}

TEST(Csv, LineContentTrimsAndSkipsBlankAndCommentLines) {
    EXPECT_EQ(csv_line_content("  a,b \r"), "a,b");
    EXPECT_EQ(csv_line_content(" \t\r"), "");
    EXPECT_EQ(csv_line_content("  # comment"), "");
    EXPECT_EQ(csv_line_content("a,#b"), "a,#b");
}

TEST(Csv, WriteFailureIsReportedNotSwallowed) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    Table t;
    t.add_column("x", {1.0, 2.0});
    // /dev/full opens fine but every flushed write fails with ENOSPC;
    // without the post-flush stream check a truncated file was reported
    // as success.
    EXPECT_THROW(write_csv_file("/dev/full", t), std::runtime_error);
}

}  // namespace
}  // namespace cellsync
