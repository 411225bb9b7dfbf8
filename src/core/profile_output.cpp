#include "core/profile_output.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/trace.h"
#include "io/csv.h"
#include "io/table.h"
#include "numerics/matrix.h"

namespace cellsync {

namespace {

/// Step 1 work item: column `column` of file `file`, sampled on its grid.
struct Sample_task {
    std::size_t file;
    Profile_column* column;
};

/// Step 2 work item: rows [begin, end) of file `file`.
struct Row_block {
    std::size_t file;
    std::size_t begin;
    std::size_t end;
};

/// The `# lambda:<gene>=<value>` lines (skipped by the CSV reader, parsed
/// by `report --json`) and the CSV header.
std::string file_head(const Profile_file& file, const Table& table) {
    std::string head;
    char buffer[48];
    for (const auto& [gene, lambda] : file.lambdas) {
        std::snprintf(buffer, sizeof(buffer), "%.17g", lambda);
        head += "# lambda:";
        head += gene;
        head += '=';
        head += buffer;
        head += '\n';
    }
    csv_format_header(table, head);
    return head;
}

}  // namespace

void write_profile_files(std::vector<Profile_file> files, Worker_pool& pool,
                         const std::function<void(std::size_t)>& written) {
    // 1. Sample. A file's estimates share one basis, so its grid design is
    // built once, from the first estimate.
    std::vector<Matrix> designs(files.size());
    std::vector<Sample_task> samples;
    for (std::size_t f = 0; f < files.size(); ++f) {
        bool have_design = false;
        for (Profile_column& column : files[f].columns) {
            if (column.estimate == nullptr) continue;
            if (!have_design) {
                designs[f] = column.estimate->basis().design_matrix(files[f].phi);
                have_design = true;
            }
            samples.push_back({f, &column});
        }
    }
    pool.parallel_for(samples.size(), [&](std::size_t i) {
        Profile_column& column = *samples[i].column;
        column.values = designs[samples[i].file] * column.estimate->coefficients();
    });

    // Every table is complete and finite before any file is opened.
    std::vector<Table> tables(files.size());
    for (std::size_t f = 0; f < files.size(); ++f) {
        tables[f].add_column("phi", std::move(files[f].phi));
        for (Profile_column& column : files[f].columns) {
            tables[f].add_column(std::move(column.label), std::move(column.values));
        }
        try {
            csv_require_finite(tables[f]);
        } catch (const std::runtime_error& e) {
            throw std::runtime_error("profile file '" + files[f].path + "': " + e.what());
        }
    }

    // 2. Format.
    std::vector<Row_block> blocks;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::size_t rows = tables[f].row_count();
        for (std::size_t begin = 0; begin < rows; begin += profile_rows_per_block) {
            blocks.push_back({f, begin, std::min(begin + profile_rows_per_block, rows)});
        }
    }
    std::vector<std::string> text(blocks.size());
    const bool tracing = telemetry::Trace_recorder::instance().enabled();
    pool.parallel_for(blocks.size(), [&](std::size_t i) {
        const Row_block& block = blocks[i];
        const telemetry::Trace_span span(
            "io.format", "io",
            tracing ? telemetry::args_join(
                          telemetry::args_join(
                              telemetry::arg("file", files[block.file].path),
                              telemetry::arg("first_row",
                                             static_cast<std::int64_t>(block.begin))),
                          telemetry::arg("rows",
                                         static_cast<std::int64_t>(block.end - block.begin)))
                    : std::string());
        const Table& table = tables[block.file];
        // At most 24 characters per value plus its separator.
        text[i].reserve((block.end - block.begin) * table.column_count() * 25);
        csv_format_rows(table, block.begin, block.end, text[i]);
    });

    // 3. Write, in file order.
    std::size_t next_block = 0;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::string& path = files[f].path;
        const std::string head = file_head(files[f], tables[f]);
        const std::size_t first_block = next_block;
        std::size_t bytes = head.size();
        while (next_block < blocks.size() && blocks[next_block].file == f) {
            bytes += text[next_block++].size();
        }
        {
            const telemetry::Trace_span span(
                "io.write", "io",
                tracing ? telemetry::args_join(
                              telemetry::arg("path", path),
                              telemetry::arg("bytes", static_cast<std::int64_t>(bytes)))
                        : std::string());
            std::ofstream out(path);
            if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
            out.write(head.data(), static_cast<std::streamsize>(head.size()));
            for (std::size_t b = first_block; b < next_block; ++b) {
                out.write(text[b].data(), static_cast<std::streamsize>(text[b].size()));
            }
            // A full disk fails the buffered writes only when they reach
            // the file; close() flushes, so check after it.
            out.close();
            if (!out) throw std::runtime_error("write failed for '" + path + "'");
        }
        if (written) written(f);
    }
}

}  // namespace cellsync
