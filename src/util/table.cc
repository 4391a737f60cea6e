#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace fasttts
{

std::string
formatDouble(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

void
Table::addRow(const std::string &label, const std::vector<double> &values,
              int precision)
{
    std::vector<std::string> row;
    row.reserve(values.size() + 1);
    row.push_back(label);
    for (double v : values)
        row.push_back(formatDouble(v, precision));
    rows_.push_back(std::move(row));
}

void
Table::setCaption(std::string caption)
{
    caption_ = std::move(caption);
}

void
Table::print(std::ostream &os) const
{
    size_t num_cols = header_.size();
    for (const auto &row : rows_)
        num_cols = std::max(num_cols, row.size());

    std::vector<size_t> widths(num_cols, 0);
    auto measure = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    if (!header_.empty())
        measure(header_);
    for (const auto &row : rows_)
        measure(row);

    size_t total = 1;
    for (size_t w : widths)
        total += w + 3;

    os << "\n" << title_ << "\n" << std::string(total, '=') << "\n";

    auto emit = [&](const std::vector<std::string> &row) {
        os << "|";
        for (size_t i = 0; i < num_cols; ++i) {
            const std::string &cell = i < row.size() ? row[i] : "";
            os << " " << cell << std::string(widths[i] - cell.size(), ' ')
               << " |";
        }
        os << "\n";
    };

    if (!header_.empty()) {
        emit(header_);
        os << std::string(total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
    os << std::string(total, '=') << "\n";
    if (!caption_.empty())
        os << caption_ << "\n";
}

} // namespace fasttts
