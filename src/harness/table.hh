/**
 * @file
 * Fixed-width text table: the aligned rows the CLIs, the bench
 * binaries and the examples print.
 */

#pragma once

#include <string>
#include <vector>

namespace gaze
{

/** A simple column-aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Append a full row (must match the header width). */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a header rule. */
    std::string toString() const;

    /** Format helpers. */
    static std::string fmt(double v, int digits = 3);
    static std::string pct(double v, int digits = 1);

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace gaze
