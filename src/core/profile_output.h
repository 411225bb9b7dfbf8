// Profile CSV output of `run`, `stream` and `merge-results`, spread over a
// worker pool with the bytes of a serial write.
//
// A profile file is `# lambda:<gene>=<value>` comment lines, then a CSV
// table: the `phi` grid, then one column per gene. write_profile_files
// works in three steps:
//
//   1. Sample. Every column given as an estimate becomes its file's grid
//      design times the estimate's coefficients — one mat-vec per gene,
//      bit-identical to estimate.sample(phi) — as a pool task writing its
//      own column.
//   2. Format. Each file's rows are cut into blocks of
//      `profile_rows_per_block` rows, and every (file, block) pair is one
//      pool task formatting its rows with csv_format_rows into its own
//      string.
//   3. Write. On the calling thread, file by file in order: the lambda
//      lines, the header, the blocks in order; then flush and check the
//      stream.
//
// Tasks write only their own slots and the block size is a constant, so
// the bytes are those of csv_format_rows over the whole table at any
// thread count. Every value is checked finite before the first file is
// opened, so a bad column leaves every existing file untouched.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/deconvolver.h"
#include "core/worker_pool.h"
#include "numerics/vector_ops.h"

namespace cellsync {

/// One gene's profile column.
struct Profile_column {
    std::string label;
    /// When set, the column is this estimate sampled on the file's phi
    /// grid (the estimate must outlive the call); otherwise `values` is
    /// written as given.
    const Single_cell_estimate* estimate = nullptr;
    Vector values;
};

/// One profile CSV.
struct Profile_file {
    std::string path;
    Vector phi;                                           ///< the `phi` column
    std::vector<Profile_column> columns;                  ///< after `phi`, in order
    std::vector<std::pair<std::string, double>> lambdas;  ///< `# lambda:` lines, in order
};

/// Rows per formatting task. A code constant, never derived from the
/// thread count: 16 rows cut a 201-point grid into 13 tasks per file.
inline constexpr std::size_t profile_rows_per_block = 16;

/// Sample, format and write every file as described above, using `pool`
/// for steps 1 and 2 (the pool must be idle). `written(k)`, if given, is
/// called after file k is flushed and checked, before file k+1 is opened.
/// Throws std::runtime_error on a non-finite value (before any file is
/// opened), std::invalid_argument on a duplicate or mis-sized column, and
/// std::runtime_error if a file cannot be opened or a write fails.
void write_profile_files(std::vector<Profile_file> files, Worker_pool& pool,
                         const std::function<void(std::size_t)>& written = {});

}  // namespace cellsync
