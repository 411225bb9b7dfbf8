// Minimal column-oriented numeric table, the interchange type between the
// CSV layer and the analysis layers.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "numerics/vector_ops.h"

namespace cellsync {

/// Named numeric columns of equal length. Name lookups go through an
/// ordered index beside the insertion-ordered names, so a genome-scale
/// panel (thousands of gene and `_sigma` columns) reads and builds in
/// O(n log n) instead of O(n^2).
class Table {
  public:
    Table() = default;

    /// Append a column; its length must match existing columns.
    /// Throws std::invalid_argument on mismatch or duplicate name.
    void add_column(std::string name, Vector values);

    std::size_t column_count() const { return names_.size(); }
    std::size_t row_count() const { return columns_.empty() ? 0 : columns_.front().size(); }

    /// Column names in insertion order.
    const std::vector<std::string>& names() const { return names_; }

    /// Column by index. Throws std::out_of_range.
    const Vector& column(std::size_t i) const;

    /// Column by name. Throws std::invalid_argument if absent.
    const Vector& column(const std::string& name) const;

    /// True if a column with this name exists.
    bool has_column(const std::string& name) const;

  private:
    std::vector<std::string> names_;
    std::vector<Vector> columns_;
    std::map<std::string, std::size_t, std::less<>> index_;  ///< name -> column index
};

}  // namespace cellsync
