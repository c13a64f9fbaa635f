#include "fuzz/seed_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/parse_int.h"

namespace hn::fuzz {
namespace {

/// Split a line into whitespace-separated tokens, dropping `#` comments.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' &&
           line[j] != '#') {
      ++j;
    }
    out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace

OpKind op_kind_by_name(std::string_view name) {
  for (u8 i = 0; i < static_cast<u8>(OpKind::kCount); ++i) {
    const auto kind = static_cast<OpKind>(i);
    if (name == op_name(kind)) return kind;
  }
  return OpKind::kCount;
}

std::string format_ops(std::span<const Op> ops) {
  std::string out;
  for (const Op& op : ops) {
    char line[128];
    std::snprintf(line, sizeof line, "op %s %llu %llu %llu\n",
                  op_name(op.kind), static_cast<unsigned long long>(op.a),
                  static_cast<unsigned long long>(op.b),
                  static_cast<unsigned long long>(op.c));
    out += line;
  }
  return out;
}

Result<std::vector<Op>> parse_ops(std::string_view text) {
  std::vector<Op> ops;
  u64 lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    ++lineno;
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;

    const std::vector<std::string_view> tok = tokenize(line);
    if (tok.empty()) continue;
    if (tok[0] != "op" || tok.size() != 5) {
      return Status::Invalid("seed line " + std::to_string(lineno) +
                             ": expected `op <name> <a> <b> <c>`");
    }
    Op op;
    op.kind = op_kind_by_name(tok[1]);
    if (op.kind == OpKind::kCount) {
      return Status::Invalid("seed line " + std::to_string(lineno) +
                             ": unknown op `" + std::string(tok[1]) + "`");
    }
    if (!parse_u64(tok[2], &op.a) || !parse_u64(tok[3], &op.b) ||
        !parse_u64(tok[4], &op.c)) {
      return Status::Invalid("seed line " + std::to_string(lineno) +
                             ": malformed parameter");
    }
    ops.push_back(op);
  }
  return ops;
}

Result<std::vector<Op>> load_ops_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open seed file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = parse_ops(buf.str());
  if (!parsed.ok()) {
    return Status::Invalid(path + ": " + parsed.status().message());
  }
  return parsed;
}

Status save_ops_file(const std::string& path, std::span<const Op> ops) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write seed file " + path);
  out << format_ops(ops);
  return out ? Status::Ok() : Status::Internal("short write to " + path);
}

}  // namespace hn::fuzz
