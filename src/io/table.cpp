#include "io/table.h"

#include <stdexcept>

namespace cellsync {

void Table::add_column(std::string name, Vector values) {
    if (has_column(name)) {
        throw std::invalid_argument("Table: duplicate column name '" + name + "'");
    }
    if (!columns_.empty() && values.size() != columns_.front().size()) {
        throw std::invalid_argument("Table: column length mismatch for '" + name + "'");
    }
    index_.emplace(name, names_.size());
    names_.push_back(std::move(name));
    columns_.push_back(std::move(values));
}

const Vector& Table::column(std::size_t i) const {
    if (i >= columns_.size()) throw std::out_of_range("Table: column index out of range");
    return columns_[i];
}

const Vector& Table::column(const std::string& name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) throw std::invalid_argument("Table: no column named '" + name + "'");
    return columns_[it->second];
}

bool Table::has_column(const std::string& name) const { return index_.contains(name); }

}  // namespace cellsync
