#include "query/parser.h"

#include <cctype>
#include <optional>

#include "common/str_util.h"

namespace cardbench {

namespace {

/// Minimal hand-rolled tokenizer for the benchmark SQL dialect.
class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  /// Next token or empty string at end of input. Token classes: identifiers,
  /// integers (sign handled by the parser), punctuation, comparison ops.
  std::string Next() {
    SkipSpace();
    if (pos_ >= text_.size()) return "";
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      return text_.substr(start, pos_ - start);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return text_.substr(start, pos_ - start);
    }
    // Two-character operators.
    if (pos_ + 1 < text_.size()) {
      const std::string two = text_.substr(pos_, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        pos_ += 2;
        return two == "!=" ? "<>" : two;
      }
    }
    ++pos_;
    return std::string(1, c);
  }

  std::string Peek() {
    const size_t saved = pos_;
    std::string tok = Next();
    pos_ = saved;
    return tok;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<CompareOp> ParseOp(const std::string& tok) {
  if (tok == "=") return CompareOp::kEq;
  if (tok == "<>") return CompareOp::kNeq;
  if (tok == "<") return CompareOp::kLt;
  if (tok == "<=") return CompareOp::kLe;
  if (tok == ">") return CompareOp::kGt;
  if (tok == ">=") return CompareOp::kGe;
  return Status::InvalidArgument("expected comparison operator, got '" + tok +
                                 "'");
}

bool IsIdentifier(const std::string& tok) {
  return !tok.empty() && (std::isalpha(static_cast<unsigned char>(tok[0])) ||
                          tok[0] == '_');
}

}  // namespace

Result<Query> ParseSql(const std::string& sql) {
  Tokenizer tok(sql);
  auto expect = [&](const std::string& want) -> Status {
    const std::string got = tok.Next();
    if (ToLower(got) != ToLower(want)) {
      return Status::InvalidArgument("expected '" + want + "', got '" + got +
                                     "'");
    }
    return Status::OK();
  };

  Query query;
  CARDBENCH_RETURN_IF_ERROR(expect("SELECT"));
  CARDBENCH_RETURN_IF_ERROR(expect("COUNT"));
  CARDBENCH_RETURN_IF_ERROR(expect("("));
  CARDBENCH_RETURN_IF_ERROR(expect("*"));
  CARDBENCH_RETURN_IF_ERROR(expect(")"));
  CARDBENCH_RETURN_IF_ERROR(expect("FROM"));

  // Table list.
  for (;;) {
    const std::string name = tok.Next();
    if (!IsIdentifier(name)) {
      return Status::InvalidArgument("expected table name, got '" + name +
                                     "'");
    }
    query.tables.push_back(name);
    const std::string sep = tok.Peek();
    if (sep == ",") {
      tok.Next();
      continue;
    }
    break;
  }

  const std::string after_from = tok.Peek();
  if (after_from.empty() || after_from == ";") return query;
  CARDBENCH_RETURN_IF_ERROR(expect("WHERE"));

  // Conjunction of conditions.
  for (;;) {
    // Left side: table.column
    const std::string lt = tok.Next();
    if (!IsIdentifier(lt)) {
      return Status::InvalidArgument("expected table name, got '" + lt + "'");
    }
    CARDBENCH_RETURN_IF_ERROR(expect("."));
    const std::string lc = tok.Next();
    if (!IsIdentifier(lc)) {
      return Status::InvalidArgument("expected column name, got '" + lc + "'");
    }
    CARDBENCH_ASSIGN_OR_RETURN(CompareOp op, ParseOp(tok.Next()));

    std::string rhs = tok.Next();
    bool negative = false;
    if (rhs == "-") {
      negative = true;
      rhs = tok.Next();
    }
    if (IsIdentifier(rhs)) {
      // Join condition: rhs must be table.column and op must be '='.
      if (op != CompareOp::kEq) {
        return Status::InvalidArgument(
            "non-equi joins are not supported (paper excludes them)");
      }
      CARDBENCH_RETURN_IF_ERROR(expect("."));
      const std::string rc = tok.Next();
      if (!IsIdentifier(rc)) {
        return Status::InvalidArgument("expected column name, got '" + rc +
                                       "'");
      }
      query.joins.push_back({lt, lc, rhs, rc});
    } else {
      // Filter predicate with integer literal.
      if (rhs.empty() ||
          !std::isdigit(static_cast<unsigned char>(rhs[0]))) {
        return Status::InvalidArgument("expected integer literal, got '" +
                                       rhs + "'");
      }
      CARDBENCH_ASSIGN_OR_RETURN(Value value, ParseNumber<Value>(rhs));
      if (negative) value = -value;
      query.predicates.push_back({lt, lc, op, value});
    }

    const std::string next = tok.Peek();
    if (ToLower(next) == "and") {
      tok.Next();
      continue;
    }
    if (next.empty() || next == ";") break;
    return Status::InvalidArgument("unexpected token '" + next + "'");
  }
  return query;
}

Status ValidateQuery(const Query& query, const Database& db) {
  if (query.tables.empty()) {
    return Status::InvalidArgument("query references no tables");
  }
  for (const auto& table : query.tables) {
    if (db.FindTable(table) == nullptr) {
      return Status::NotFound("unknown table " + table);
    }
  }
  auto check_column = [&](const std::string& table,
                          const std::string& column) -> Status {
    if (query.TableIndex(table) < 0) {
      return Status::InvalidArgument("table " + table +
                                     " not in query FROM list");
    }
    const Table* t = db.FindTable(table);
    if (t == nullptr || !t->FindColumn(column).has_value()) {
      return Status::NotFound("unknown column " + table + "." + column);
    }
    return Status::OK();
  };
  for (const auto& join : query.joins) {
    CARDBENCH_RETURN_IF_ERROR(check_column(join.left_table, join.left_column));
    CARDBENCH_RETURN_IF_ERROR(
        check_column(join.right_table, join.right_column));
    if (join.left_table == join.right_table) {
      return Status::Unsupported("self joins are not supported: " +
                                 join.ToString());
    }
  }
  for (const auto& pred : query.predicates) {
    CARDBENCH_RETURN_IF_ERROR(check_column(pred.table, pred.column));
  }
  if (!query.IsConnected(query.FullMask())) {
    return Status::InvalidArgument(
        "join graph is disconnected (cross products not supported)");
  }
  return Status::OK();
}

}  // namespace cardbench
