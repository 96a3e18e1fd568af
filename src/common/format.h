#ifndef EXSAMPLE_COMMON_FORMAT_H_
#define EXSAMPLE_COMMON_FORMAT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace exsample {
namespace common {

/// \brief Formats a duration in seconds the way the paper's Table I does:
/// "18s", "1m37s", "9h50m". Sub-second durations render as e.g. "0.4s".
std::string FormatDuration(double seconds);

/// \brief Formats a count with thousands separators ("33,546").
std::string FormatCount(uint64_t count);

/// \brief Formats a ratio as e.g. "3.7x" (two significant digits past 10).
std::string FormatRatio(double ratio);

/// \brief Parses `text` as one whole unsigned decimal number, the way the
/// command-line tools read numeric flags: false on empty text, a leading
/// blank or sign (strtoull would wrap "-1"), trailing characters, or
/// overflow.
bool ParseValue(const std::string& text, uint64_t* out);

/// \brief Parses `text` as one whole `strtod` number; false on empty text or
/// trailing characters.
bool ParseValue(const std::string& text, double* out);

/// \brief Minimal fixed-width text table used by the bench harness output.
///
/// Columns are right-padded to the widest cell. Intended for small
/// paper-style tables, not large data dumps.
class TextTable {
 public:
  /// Sets the header row (also resets existing rows' width bookkeeping).
  void SetHeader(std::vector<std::string> header);

  /// Appends a data row. Rows may have fewer cells than the header.
  void AddRow(std::vector<std::string> row);

  /// Appends a horizontal separator line.
  void AddSeparator();

  /// Renders the table with aligned columns.
  std::string ToString() const;

  /// Convenience: streams `ToString()`.
  void Print(std::ostream& os) const;

  /// Number of data rows added so far (separators excluded).
  size_t row_count() const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

}  // namespace common
}  // namespace exsample

#endif  // EXSAMPLE_COMMON_FORMAT_H_
