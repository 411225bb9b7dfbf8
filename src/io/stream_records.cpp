#include "io/stream_records.h"

#include <cmath>
#include <istream>
#include <stdexcept>

#include "io/csv.h"

namespace cellsync {

Record_stream::Record_stream(std::istream& in) : in_(in) {
    std::vector<std::string_view>& header = fields_;
    while (std::getline(in_, line_)) {
        ++line_number_;
        const std::string_view t = csv_line_content(line_);
        if (t.empty()) continue;
        csv_split_fields(t, header);
        break;
    }
    if (header.empty()) {
        throw std::runtime_error("record stream: empty or missing header");
    }
    bool has_time = false, has_gene = false, has_value = false;
    // A repeated column is ambiguous (which copy holds the data?); the old
    // last-one-wins behavior silently read the wrong field, so reject.
    const auto reject_duplicate = [&](bool seen, std::string_view name) {
        if (seen) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": duplicate column '" + std::string(name) + "'");
        }
    };
    for (std::size_t c = 0; c < header.size(); ++c) {
        const std::string_view name = header[c];
        if (name == "time") {
            reject_duplicate(has_time, name);
            time_col_ = c;
            has_time = true;
        } else if (name == "gene") {
            reject_duplicate(has_gene, name);
            gene_col_ = c;
            has_gene = true;
        } else if (name == "value") {
            reject_duplicate(has_value, name);
            value_col_ = c;
            has_value = true;
        } else if (name == "sigma") {
            reject_duplicate(has_sigma_, name);
            sigma_col_ = c;
            has_sigma_ = true;
        } else {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": unexpected column '" + std::string(name) +
                                     "' (want time, gene, value[, sigma])");
        }
    }
    if (!has_time || !has_gene || !has_value) {
        throw std::runtime_error(
            "record stream: header needs time, gene, and value columns");
    }
    column_count_ = header.size();
}

std::optional<Expression_record> Record_stream::parse_next() {
    while (std::getline(in_, line_)) {
        ++line_number_;
        const std::string_view t = csv_line_content(line_);
        if (t.empty()) continue;

        csv_split_fields(t, fields_);
        if (fields_.size() != column_count_) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": expected " + std::to_string(column_count_) +
                                     " fields, got " + std::to_string(fields_.size()));
        }
        Expression_record record;
        record.time = csv_parse_field(fields_[time_col_], line_number_);
        record.gene = fields_[gene_col_];
        record.value = csv_parse_field(fields_[value_col_], line_number_);
        if (has_sigma_) record.sigma = csv_parse_field(fields_[sigma_col_], line_number_);
        if (record.gene.empty()) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": empty gene name");
        }
        if (!(record.sigma > 0.0) || !std::isfinite(record.sigma)) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": sigma must be positive and finite");
        }
        if (any_record_ && record.time < last_time_) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": time went backwards (append-only logs are "
                                     "time-ordered)");
        }
        last_time_ = record.time;
        any_record_ = true;
        ++record_count_;
        return record;
    }
    return std::nullopt;
}

std::optional<Expression_record> Record_stream::next() {
    if (lookahead_.has_value()) {
        std::optional<Expression_record> out = std::move(lookahead_);
        lookahead_.reset();
        return out;
    }
    return parse_next();
}

std::vector<Expression_record> Record_stream::next_timepoint() {
    std::vector<Expression_record> batch;
    std::optional<Expression_record> record = next();
    if (!record.has_value()) return batch;
    const double time = record->time;
    batch.push_back(std::move(*record));
    for (;;) {
        record = parse_next();
        if (!record.has_value()) break;
        if (record->time != time) {
            lookahead_ = std::move(record);
            break;
        }
        batch.push_back(std::move(*record));
    }
    return batch;
}

}  // namespace cellsync
