#include "common/format.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace exsample {
namespace common {

std::string FormatDuration(double seconds) {
  char buf[64];
  if (seconds < 0.0) seconds = 0.0;
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
    return buf;
  }
  const uint64_t total = static_cast<uint64_t>(std::llround(seconds));
  const uint64_t hours = total / 3600;
  const uint64_t minutes = (total % 3600) / 60;
  const uint64_t secs = total % 60;
  if (hours > 0) {
    if (minutes > 0) {
      std::snprintf(buf, sizeof(buf), "%lluh%llum", static_cast<unsigned long long>(hours),
                    static_cast<unsigned long long>(minutes));
    } else {
      std::snprintf(buf, sizeof(buf), "%lluh", static_cast<unsigned long long>(hours));
    }
    return buf;
  }
  if (minutes > 0) {
    if (secs > 0) {
      std::snprintf(buf, sizeof(buf), "%llum%llus",
                    static_cast<unsigned long long>(minutes),
                    static_cast<unsigned long long>(secs));
    } else {
      std::snprintf(buf, sizeof(buf), "%llum", static_cast<unsigned long long>(minutes));
    }
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%llus", static_cast<unsigned long long>(secs));
  return buf;
}

std::string FormatCount(uint64_t count) {
  std::string digits = std::to_string(count);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int until_comma = static_cast<int>(digits.size() % 3);
  if (until_comma == 0) until_comma = 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (until_comma == 0) {
      out.push_back(',');
      until_comma = 3;
    }
    out.push_back(digits[i]);
    --until_comma;
  }
  return out;
}

std::string FormatRatio(double ratio) {
  char buf[32];
  if (ratio >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%.0fx", ratio);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2gx", ratio);
  }
  return buf;
}

bool ParseValue(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size();
}

bool ParseValue(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

void TextTable::SetHeader(std::vector<std::string> header) { header_ = std::move(header); }

void TextTable::AddRow(std::vector<std::string> row) {
  rows_.push_back(Row{false, std::move(row)});
}

void TextTable::AddSeparator() { rows_.push_back(Row{true, {}}); }

size_t TextTable::row_count() const {
  size_t count = 0;
  for (const Row& row : rows_) {
    if (!row.separator) ++count;
  }
  return count;
}

std::string TextTable::ToString() const {
  size_t columns = header_.size();
  for (const Row& row : rows_) columns = std::max(columns, row.cells.size());
  std::vector<size_t> widths(columns, 0);
  auto widen = [&widths](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const Row& row : rows_) {
    if (!row.separator) widen(row.cells);
  }

  size_t total_width = 0;
  for (size_t w : widths) total_width += w + 2;
  if (total_width >= 2) total_width -= 2;

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < columns; ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      os << cell;
      if (i + 1 < columns) os << std::string(widths[i] - cell.size() + 2, ' ');
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    os << std::string(total_width, '-') << '\n';
  }
  for (const Row& row : rows_) {
    if (row.separator) {
      os << std::string(total_width, '-') << '\n';
    } else {
      emit(row.cells);
    }
  }
  return os.str();
}

void TextTable::Print(std::ostream& os) const { os << ToString(); }

}  // namespace common
}  // namespace exsample
