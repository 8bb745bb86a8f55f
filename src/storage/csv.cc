#include "storage/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace cardbench {

namespace {

const char* KindTag(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kNumeric: return "num";
    case ColumnKind::kCategorical: return "cat";
    case ColumnKind::kKey: return "key";
    case ColumnKind::kTimestamp: return "ts";
  }
  return "num";
}

Result<ColumnKind> ParseKindTag(std::string_view tag) {
  if (tag == "num") return ColumnKind::kNumeric;
  if (tag == "cat") return ColumnKind::kCategorical;
  if (tag == "key") return ColumnKind::kKey;
  if (tag == "ts") return ColumnKind::kTimestamp;
  return Status::InvalidArgument("unknown column kind tag: " +
                                 std::string(tag));
}

}  // namespace

Status WriteTableCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << ',';
    out << table.column(c).name() << ':' << KindTag(table.column(c).kind());
  }
  out << '\n';
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << ',';
      const Column& col = table.column(c);
      if (col.IsValid(row)) out << col.Get(row);
    }
    out << '\n';
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status ReadTableCsv(Table& table, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::IOError("empty file: " + path);

  for (const auto& field : Split(line, ',')) {
    const auto parts = Split(field, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument("bad header field: " + field);
    }
    CARDBENCH_ASSIGN_OR_RETURN(ColumnKind kind, ParseKindTag(parts[1]));
    CARDBENCH_RETURN_IF_ERROR(table.AddColumn(parts[0], kind));
  }

  std::vector<std::optional<Value>> row(table.num_columns());
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = Split(line, ',');
    if (fields.size() != table.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("row width %zu != %zu columns", fields.size(),
                    table.num_columns()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      if (fields[c].empty()) {
        row[c] = std::nullopt;
      } else {
        CARDBENCH_ASSIGN_OR_RETURN(row[c], ParseNumber<Value>(fields[c]));
      }
    }
    CARDBENCH_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return Status::OK();
}

}  // namespace cardbench
