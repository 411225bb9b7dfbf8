// CSV reading and writing for numeric tables.
//
// Format: first row is the header (column names), subsequent rows are
// numeric values. Separator is ','; leading/trailing whitespace around
// fields is ignored; blank lines and lines starting with '#' are skipped.
// This covers the expression-data files the method consumes (the
// "wire data parsing manually" part of the reproduction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "io/table.h"

namespace cellsync {

/// Parse CSV text from a stream. Throws std::runtime_error with the line
/// number on ragged rows, non-numeric fields, or an empty header.
Table read_csv(std::istream& in);

/// Parse CSV text from a string.
Table read_csv_string(const std::string& text);

/// Read a CSV file. Throws std::runtime_error if the file cannot be
/// opened, plus the parse errors above.
Table read_csv_file(const std::string& path);

/// The line-level rules of read_csv, shared with the incremental record
/// reader (io/stream_records.h): `line` without its surrounding blanks
/// (' ', '\t', '\r'), or an empty view for a blank or '#' comment line.
std::string_view csv_line_content(std::string_view line);

/// Split one CSV line into trimmed fields (',' separator; a trailing ','
/// yields a final empty field; an empty line has no fields) — the field
/// semantics of read_csv and the record reader. `fields` is cleared
/// first and its views point into `line`, so a caller that reuses it
/// splits without allocating.
void csv_split_fields(std::string_view line, std::vector<std::string_view>& fields);

/// Parse one numeric CSV field under read_csv's rules: optional leading
/// '+', finite values only. Throws std::runtime_error naming
/// `line_number` on malformed or non-finite input.
double csv_parse_field(std::string_view field, std::size_t line_number);

/// The repo-wide number-parsing policy (std::from_chars, whole-string,
/// optional leading '+', finite only), outside a CSV context: the same
/// rules as csv_parse_field but with errors that name the offending
/// text instead of a line number. This — not std::stod/strtod/atof,
/// which silently accept garbage suffixes ("1.5junk" parses as 1.5),
/// locale-dependent separators, and inf/nan — is how every number
/// enters the system; tools/cellsync_archcheck enforces it mechanically.
/// Throws std::runtime_error on violation.
double parse_strict_double(const std::string& text);

/// Unsigned-integer counterpart of parse_strict_double: whole-string
/// decimal digits only (no sign, no whitespace, no 0x), so "-1" fails
/// instead of wrapping to 2^64-1 the way std::stoull parses it. Throws
/// std::runtime_error naming the offending text.
std::uint64_t parse_strict_uint64(const std::string& text);

/// Throws std::runtime_error naming the column and row of the first
/// non-finite value (by column, then row): the strict reader rejects
/// inf/nan, so no writer may emit them.
void csv_require_finite(const Table& table);

/// Append the header line of `table` to `out`: the column names joined by
/// ',', then '\n'.
void csv_format_header(const Table& table, std::string& out);

/// Append rows [row_begin, row_end) of `table` to `out`, each value as
/// "%.17g" (std::to_chars, no locale), ',' between values and '\n' after
/// each row. This is the one row formatter: write_csv is the header plus
/// this over every row, so formatting a table in blocks and concatenating
/// them gives write_csv's bytes for any block size. The values are not
/// checked; call csv_require_finite first. Throws std::out_of_range if
/// row_begin > row_end or row_end > row_count().
void csv_format_rows(const Table& table, std::size_t row_begin, std::size_t row_end,
                     std::string& out);

/// Write a table as CSV (header + rows, '\n' line endings, max precision).
/// Checks csv_require_finite before writing anything: every written file
/// reads back under the strict finite-only parser.
void write_csv(std::ostream& out, const Table& table);

/// Write a table to a file. Throws std::runtime_error on a non-finite
/// value (before the file is opened), on open failure and — after
/// flushing — on any write failure, so a full disk surfaces as an error
/// instead of a silently truncated file.
void write_csv_file(const std::string& path, const Table& table);

}  // namespace cellsync
