/**
 * @file
 * Column-aligned ASCII tables for the human-facing tools.
 *
 * The examples and bench_online_responsiveness print their results
 * through Table; the machine-readable figure output is bench_runner's
 * BENCH_<name>.json.
 */

#ifndef FASTTTS_UTIL_TABLE_H
#define FASTTTS_UTIL_TABLE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace fasttts
{

/**
 * Column-aligned ASCII table with a title and optional caption.
 */
class Table
{
  public:
    /** @param title Printed above the table body. */
    explicit Table(std::string title);

    /** Set the column headers; defines the column count. */
    void setHeader(std::vector<std::string> header);

    /** Append a pre-formatted row; short rows are padded with "". */
    void addRow(std::vector<std::string> row);

    /** Append a row of doubles formatted with the given precision. */
    void addRow(const std::string &label, const std::vector<double> &values,
                int precision = 2);

    /** Free-text note printed under the table (paper expectation etc.). */
    void setCaption(std::string caption);

    /** Render to a stream. */
    void print(std::ostream &os) const;

    /** Number of data rows. */
    size_t numRows() const { return rows_.size(); }

  private:
    std::string title_;
    std::string caption_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision (helper for bench output). */
std::string formatDouble(double value, int precision = 2);

} // namespace fasttts

#endif // FASTTTS_UTIL_TABLE_H
