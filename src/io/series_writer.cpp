#include "io/series_writer.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/csv.h"

namespace cellsync {

Series_writer::Series_writer(std::string axis_name, Vector axis_values) {
    table_.add_column(std::move(axis_name), std::move(axis_values));
}

Series_writer& Series_writer::add(std::string name, Vector values) {
    if (!all_finite(values)) {
        throw std::invalid_argument("Series_writer: series '" + name +
                                    "' has a non-finite value");
    }
    table_.add_column(std::move(name), std::move(values));
    return *this;
}

void Series_writer::write(const std::string& path) const { write_csv_file(path, table_); }

std::string Series_writer::to_csv_string() const {
    std::ostringstream out;
    write_csv(out, table_);
    return out.str();
}

}  // namespace cellsync
