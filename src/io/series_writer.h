// Figure-series export: collect named series over a shared abscissa and
// write them as one CSV, the format the benches use to dump reproduced
// figures for external plotting.
#pragma once

#include <string>

#include "io/table.h"

namespace cellsync {

/// Accumulates columns against a fixed abscissa and writes CSV.
class Series_writer {
  public:
    /// The abscissa column (e.g. "minutes" or "phi").
    Series_writer(std::string axis_name, Vector axis_values);

    /// Add a series (moved in); length must match the abscissa and every
    /// value must be finite (a result file never carries NaN or inf).
    /// Throws std::invalid_argument on mismatch, duplicate name or a
    /// non-finite value.
    Series_writer& add(std::string name, Vector values);

    /// The accumulated table.
    const Table& table() const { return table_; }

    /// Write to a file (creates/truncates). Throws std::runtime_error on
    /// failure.
    void write(const std::string& path) const;

    /// Render as CSV text (for stdout-oriented benches).
    std::string to_csv_string() const;

  private:
    Table table_;
};

}  // namespace cellsync
