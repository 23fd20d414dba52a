#include "detlint/rules.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <utility>

namespace detlint {

namespace {

// The suppression marker head. Built from pieces so detlint's own
// sources never contain the literal marker (it would self-flag).
const std::string kMarker = std::string("det-") + "ok(";

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::string lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool ident_in(const Token& t, std::initializer_list<const char*> names) {
  if (t.kind != TokKind::kIdent) return false;
  for (const char* n : names) {
    if (t.text == n) return true;
  }
  return false;
}

void emit(const Rule& rule, const FileScan& file, int line,
          std::string message, std::vector<Finding>& out) {
  Finding f;
  f.rule = std::string(rule.id);
  f.rule_name = std::string(rule.name);
  f.severity = rule.severity;
  f.file = file.path;
  f.line = line;
  f.message = std::move(message);
  f.hint = std::string(rule.hint);
  out.push_back(std::move(f));
}

// Skips a balanced template argument list; `i` must index the opening
// '<'. Returns the index just past the matching '>', or `end` when the
// list never closes before a hard stop.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    else if (t == ">") --depth;
    else if (t == ">>") depth -= 2;
    else if (t == ";" || t == "{") return toks.size();
    if (depth <= 0) return i + 1;
  }
  return toks.size();
}

constexpr std::initializer_list<const char*> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

constexpr std::initializer_list<const char*> kAllStdContainers = {
    "map",           "set",           "multimap",
    "multiset",      "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset"};

bool any_file(const FileScan&) { return true; }
bool in_src(const FileScan& file) { return starts_with(file.path, "src/"); }
bool in_measure(const FileScan& file) {
  return starts_with(file.path, "src/measure/");
}
bool outside_bench(const FileScan& file) {
  return !contains(file.path, "bench");
}
bool header_file(const FileScan& file) { return file.is_header; }
bool source_file(const FileScan& file) { return !file.is_header; }

// --------------------------------------------------- D1 unordered-iteration
void check_unordered_iteration(const Rule& rule, const FileScan& file,
                               std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
        ident_in(toks[i + 2], kUnorderedContainers)) {
      emit(rule, file, toks[i + 2].line,
           "std::" + toks[i + 2].text + " in a simulation-linked file",
           out);
    }
  }
}

// --------------------------------------------------- D2 wall-clock-entropy
void check_wall_clock_entropy(const Rule& rule, const FileScan& file,
                              std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  // True when the qualified name ending at token i is rooted anywhere
  // other than std:: (a member or a project namespace is fine).
  const auto foreign_scope = [&](std::size_t i) {
    if (i == 0) return false;
    if (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) {
      return true;
    }
    if (is_punct(toks[i - 1], "::") && i >= 2 &&
        toks[i - 2].kind == TokKind::kIdent &&
        toks[i - 2].text != "std") {
      return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // system_clock is usually reached as std::chrono::system_clock, so
    // only a member access marks it foreign.
    if (is_ident(toks[i], "system_clock") && i + 4 < toks.size() &&
        is_punct(toks[i + 1], "::") && is_ident(toks[i + 2], "now") &&
        is_punct(toks[i + 3], "(") && is_punct(toks[i + 4], ")") &&
        !(i > 0 && (is_punct(toks[i - 1], ".") ||
                    is_punct(toks[i - 1], "->")))) {
      emit(rule, file, toks[i].line,
           "system_clock::now() reads the wall clock", out);
      continue;
    }
    if (foreign_scope(i)) continue;
    if (ident_in(toks[i], {"rand", "srand"}) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      emit(rule, file, toks[i].line,
           toks[i].text + "() draws from ambient global state", out);
      continue;
    }
    if (is_ident(toks[i], "random_device")) {
      emit(rule, file, toks[i].line,
           "std::random_device is nondeterministic by design", out);
      continue;
    }
    if (is_ident(toks[i], "time") && i + 3 < toks.size() &&
        is_punct(toks[i + 1], "(") &&
        (ident_in(toks[i + 2], {"nullptr", "NULL"}) ||
         toks[i + 2].text == "0") &&
        is_punct(toks[i + 3], ")")) {
      emit(rule, file, toks[i].line,
           "time(" + toks[i + 2].text + ") reads the wall clock", out);
      continue;
    }
  }
}

// ------------------------------------------------------- D3 thread-id-logic
void check_thread_id_logic(const Rule& rule, const FileScan& file,
                           std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is_ident(toks[i], "this_thread") &&
        is_punct(toks[i + 1], "::") && is_ident(toks[i + 2], "get_id")) {
      emit(rule, file, toks[i].line,
           "this_thread::get_id() is not stable across runs", out);
    }
  }
}

// ------------------------------------------------------ D4 pointer-keyed-map
void check_pointer_keyed_map(const Rule& rule, const FileScan& file,
                             std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
          ident_in(toks[i + 2], kAllStdContainers) &&
          is_punct(toks[i + 3], "<"))) {
      continue;
    }
    // First template argument: tokens at angle depth 1 up to the first
    // ',' (or the closing '>').
    int depth = 1;
    std::size_t last = 0;  // index of the key type's final token
    for (std::size_t j = i + 4; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "<") ++depth;
      else if (t == ">") --depth;
      else if (t == ">>") depth -= 2;
      else if (t == ";" || t == "{") break;
      if (depth <= 0 || (depth == 1 && t == ",")) break;
      last = j;
    }
    if (last != 0 && is_punct(toks[last], "*")) {
      emit(rule, file, toks[i + 2].line,
           "std::" + toks[i + 2].text + " keyed by raw pointer type",
           out);
    }
  }
}

// ------------------------------------------------- D5 fp-accumulation-order
void check_fp_accumulation_order(const Rule& rule, const FileScan& file,
                                 std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  // Names declared as std::unordered_* in this file.
  std::vector<std::string> unordered_vars;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
        ident_in(toks[i + 2], kUnorderedContainers)) {
      std::size_t j = i + 3;
      if (j < toks.size() && is_punct(toks[j], "<")) {
        j = skip_angles(toks, j);
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
        unordered_vars.push_back(toks[j].text);
      }
    }
  }
  if (unordered_vars.empty()) return;
  const auto is_unordered_var = [&](const Token& t) {
    return t.kind == TokKind::kIdent &&
           std::find(unordered_vars.begin(), unordered_vars.end(),
                     t.text) != unordered_vars.end();
  };
  // Range-for whose range expression names one of those containers.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) {
      continue;
    }
    int pdepth = 1;
    std::size_t colon = 0;
    std::size_t close = 0;
    bool classic_for = false;
    for (std::size_t j = i + 2; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") ++pdepth;
      else if (t == ")") {
        --pdepth;
        if (pdepth == 0) {
          close = j;
          break;
        }
      } else if (pdepth == 1 && t == ";") {
        classic_for = true;
      } else if (pdepth == 1 && t == ":" && colon == 0) {
        colon = j;
      }
    }
    if (classic_for || colon == 0 || close == 0) continue;
    bool over_unordered = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (is_unordered_var(toks[j])) over_unordered = true;
    }
    if (!over_unordered) continue;
    // Loop body: braced block or single statement.
    std::size_t j = close + 1;
    std::size_t body_end = toks.size();
    if (j < toks.size() && is_punct(toks[j], "{")) {
      int bdepth = 1;
      for (std::size_t k = j + 1; k < toks.size(); ++k) {
        if (is_punct(toks[k], "{")) ++bdepth;
        else if (is_punct(toks[k], "}")) --bdepth;
        if (bdepth == 0) {
          body_end = k;
          break;
        }
      }
      ++j;
    } else {
      for (std::size_t k = j; k < toks.size(); ++k) {
        if (is_punct(toks[k], ";")) {
          body_end = k;
          break;
        }
      }
    }
    for (; j < body_end; ++j) {
      if (is_punct(toks[j], "+=") || is_punct(toks[j], "-=")) {
        emit(rule, file, toks[j].line,
             "compound accumulation inside iteration over unordered "
             "container",
             out);
      }
    }
  }
}

// ------------------------------------------------- D7 underived-rng-seed
void check_underived_rng_seed(const Rule& rule, const FileScan& file,
                              std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "Rng")) continue;
    if (i > 0 && is_punct(toks[i - 1], "::")) continue;  // Rng::Rng def
    if (i > 0 && is_punct(toks[i - 1], "~")) continue;   // destructor
    // `Rng() = default;` is a constructor declaration, not a draw.
    if (i + 3 < toks.size() && is_punct(toks[i + 3], "=")) continue;
    // `Rng x;` — default-constructed local.
    if (i + 2 < toks.size() && toks[i + 1].kind == TokKind::kIdent &&
        is_punct(toks[i + 2], ";")) {
      emit(rule, file, toks[i].line,
           "Rng '" + toks[i + 1].text + "' default-constructed", out);
      continue;
    }
    // `Rng()` / `Rng{}` — default-constructed temporary.
    if (i + 1 < toks.size() &&
        ((is_punct(toks[i + 1], "(") && i + 2 < toks.size() &&
          is_punct(toks[i + 2], ")")) ||
         (is_punct(toks[i + 1], "{") && i + 2 < toks.size() &&
          is_punct(toks[i + 2], "}")))) {
      emit(rule, file, toks[i].line, "Rng temporary default-constructed",
           out);
    }
  }
}

// ------------------------------------------ D8 (stale determinism debt)
void check_determinism_todo(const Rule& rule, const FileScan& file,
                            std::vector<Finding>& out) {
  for (const Comment& cm : file.comments) {
    const std::string text = lower(cm.text);
    const bool marker = contains(text, "todo") ||
                        contains(text, "fixme") || contains(text, "xxx");
    if (!marker) continue;
    const bool determinism =
        contains(text, "determin") || contains(text, "nondet") ||
        contains(text, "iteration order") ||
        contains(text, "thread count") || contains(text, "race");
    if (determinism) {
      emit(rule, file, cm.line,
           "comment flags unresolved determinism debt", out);
    }
  }
}

// ---------------------------------------------------- S1 pragma-once
void check_pragma_once(const Rule& rule, const FileScan& file,
                       std::vector<Finding>& out) {
  for (const Directive& d : file.directives) {
    std::string flat;
    for (const char c : d.text) {
      if (!std::isspace(static_cast<unsigned char>(c))) flat += c;
    }
    if (flat == "#pragmaonce") return;
  }
  emit(rule, file, 1, "missing #pragma once", out);
}

// ---------------------------------------------------- S2 include-hygiene
// The layer order of src/ (CONTRIBUTING.md, "Dependency order"): a quoted
// include in src/<dir>/ may name its own directory or one of strictly
// lower rank. A src/ directory missing from the table is itself a
// finding, so a new module has to be placed in the order.
struct Layer {
  std::string_view dir;
  int rank;
};
constexpr Layer kLayers[] = {
    {"common", 0}, {"obs", 1}, {"topology", 2}, {"sim", 3}, {"overlay", 4},
    {"measure", 5}, {"faults", 5}, {"adversary", 5}, {"gnutella", 5},
    {"chord", 5}, {"pastry", 5}, {"tapestry", 5}, {"can", 5},
    {"core", 6},
    {"analysis", 7}, {"baselines", 7}, {"metrics", 7}, {"workload", 7},
    {"app", 8},
};

// Rank of a src/ directory; -1 when the table does not place it.
int layer_rank(std::string_view dir) {
  for (const Layer& layer : kLayers) {
    if (layer.dir == dir) return layer.rank;
  }
  return -1;
}

// First path component of `path`; empty when it has no '/'.
std::string first_dir(const std::string& path) {
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

void check_include_hygiene(const Rule& rule, const FileScan& file,
                           std::vector<Finding>& out) {
  // Files directly in src/ (and everything outside it) have no layer.
  const std::string dir =
      starts_with(file.path, "src/") ? first_dir(file.path.substr(4)) : "";
  const int rank = dir.empty() ? -1 : layer_rank(dir);
  if (!dir.empty() && rank < 0) {
    emit(rule, file, 1,
         "src/" + dir + "/ has no place in the layer order", out);
  }
  std::vector<std::string> seen;
  for (const Directive& d : file.directives) {
    std::string rest = trim(d.text.substr(1));  // past '#'
    if (!starts_with(rest, "include")) continue;
    rest = trim(rest.substr(7));
    if (rest.empty()) continue;
    const char open = rest[0];
    if (open != '"' && open != '<') continue;
    const char close = open == '"' ? '"' : '>';
    const std::size_t end = rest.find(close, 1);
    if (end == std::string::npos) continue;
    const std::string spec = rest.substr(1, end - 1);
    if (open == '"' &&
        (starts_with(spec, "../") || contains(spec, "/../"))) {
      emit(rule, file, d.line,
           "parent-relative include \"" + spec + "\"", out);
    } else if (open == '"' && rank >= 0) {
      const std::string to = first_dir(spec);
      const int to_rank = layer_rank(to);
      if (!to.empty() && to != dir && (to_rank < 0 || to_rank >= rank)) {
        emit(rule, file, d.line,
             "layer order: src/" + dir + "/ may not include \"" + spec +
                 "\"",
             out);
      }
    }
    if (open == '<' && starts_with(spec, "bits/")) {
      emit(rule, file, d.line,
           "libstdc++ internal header <" + spec + ">", out);
    }
    const std::string key = std::string(1, open) + spec;
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      emit(rule, file, d.line, "duplicate include of " + spec, out);
    } else {
      seen.push_back(key);
    }
  }
}

// Shared marker parse for suppressions and S3. Returns true and fills
// ids/reason on a well-formed marker; `present` reports whether the
// marker head appeared at all.
bool parse_marker(const std::string& comment, bool& present,
                  std::vector<std::string>& ids, std::string& reason) {
  present = false;
  const std::size_t at = comment.find(kMarker);
  if (at == std::string::npos) return false;
  present = true;
  const std::size_t open = at + kMarker.size();
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return false;
  std::string list = comment.substr(open, close - open);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string id = trim(list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    const Rule* rule = id.empty() ? nullptr : find_rule(id);
    if (rule == nullptr) {
      ids.clear();
      return false;
    }
    // Findings carry the short id, so a marker spelled by name stores it.
    ids.emplace_back(rule->id);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  std::size_t p = close + 1;
  while (p < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[p]))) {
    ++p;
  }
  if (p >= comment.size() || comment[p] != ':') {
    ids.clear();
    return false;
  }
  reason = trim(comment.substr(p + 1));
  if (reason.empty()) {
    ids.clear();
    return false;
  }
  return true;
}

// ---------------------------------------------------- S3 suppression-syntax
void check_suppression_syntax(const Rule& rule, const FileScan& file,
                              std::vector<Finding>& out) {
  for (const Comment& cm : file.comments) {
    bool present = false;
    std::vector<std::string> ids;
    std::string reason;
    if (!parse_marker(cm.text, present, ids, reason) && present) {
      emit(rule, file, cm.line, "malformed suppression marker", out);
    }
  }
}

// The catalog. Row order is the order --list-rules prints and a file's
// rules run in.
constexpr Rule kRules[] = {
    {"D1", "unordered-iteration",
     "std::unordered_* in simulation-linked code (src/): iteration "
     "order is unspecified and varies across standard libraries, "
     "silently breaking bit-identical runs",
     "use std::map/std::set or a sorted vector; if the container "
     "is only probed (never iterated), suppress with a reason",
     Severity::kError, in_src, check_unordered_iteration},
    {"D2", "wall-clock-entropy",
     "ambient entropy or wall-clock reads (rand, srand, "
     "std::random_device, time(nullptr), system_clock::now()) "
     "outside bench timing code",
     "derive every stream from the run seed (seed + prime "
     "convention, or Rng::split()); benches may read clocks",
     Severity::kError, outside_bench, check_wall_clock_entropy},
    {"D3", "thread-id-logic",
     "std::this_thread::get_id() feeding logic: thread ids are "
     "scheduler-assigned and differ run to run",
     "pass an explicit worker index into the task instead",
     Severity::kError, any_file, check_thread_id_logic},
    {"D4", "pointer-keyed-map",
     "associative container keyed by a raw pointer: address order "
     "(and hash) depends on allocator behavior, so iteration leaks "
     "nondeterminism",
     "key by a stable id (SlotId, NodeId, index) instead of an "
     "object address",
     Severity::kError, any_file, check_pointer_keyed_map},
    {"D5", "fp-accumulation-order",
     "floating-point accumulation while iterating an unordered "
     "container in src/measure/: FP addition does not commute, so "
     "the sum depends on hash-bucket order",
     "accumulate in index order (vector indexed by slot/query id) "
     "and reduce in a fixed sequence",
     Severity::kError, in_measure, check_fp_accumulation_order},
    // Headers declare Rng members that constructors seed later; the
    // default-seed hazard is default-constructed locals/temporaries.
    {"D7", "underived-rng-seed",
     "Rng constructed without an explicit seed: every stream must "
     "derive from the run seed so fault/churn/protocol draws stay "
     "independent and reproducible",
     "seed with `spec.seed + <prime>` (the faults layer uses "
     "seed + 131) or split an existing stream via Rng::split()",
     Severity::kError, source_file, check_underived_rng_seed},
    {"D8", "determinism-todo",
     "TODO/FIXME marker admitting a determinism or ordering "
     "problem: tracked debt in exactly the bug class the golden "
     "tests cannot localize",
     "fix it or file an issue and reference it from the comment",
     Severity::kWarning, any_file, check_determinism_todo},
    {"S1", "pragma-once",
     "header without #pragma once",
     "add #pragma once after the file comment",
     Severity::kError, header_file, check_pragma_once},
    {"S2", "include-hygiene",
     "include hygiene: no parent-relative quoted includes, no "
     "<bits/...> internals, no duplicate includes, and no src/ "
     "include against the layer order",
     "include project headers root-relative (the build exports "
     "src/ and tools/) and public standard headers only, once; a "
     "src/<dir>/ file names only its own or a lower layer",
     Severity::kError, any_file, check_include_hygiene},
    {"S3", "suppression-syntax",
     "malformed suppression marker: unknown rule id, missing "
     "colon, or empty reason",
     "write the marker as id list in parentheses, a colon, then a "
     "non-empty reason (see docs/ANALYSIS.md)",
     Severity::kError, any_file, check_suppression_syntax},
};

}  // namespace

std::span<const Rule> rules() { return kRules; }

const Rule* find_rule(std::string_view id_or_name) {
  for (const Rule& rule : kRules) {
    if (rule.id == id_or_name || rule.name == id_or_name) return &rule;
  }
  return nullptr;
}

std::vector<Suppression> collect_suppressions(const FileScan& file) {
  std::vector<Suppression> out;
  for (const Comment& cm : file.comments) {
    bool present = false;
    std::vector<std::string> ids;
    std::string reason;
    if (!parse_marker(cm.text, present, ids, reason)) continue;
    // Own-line markers shield the next source line; trailing markers
    // their own.
    const int target = cm.own_line ? cm.end_line + 1 : cm.line;
    for (const std::string& id : ids) {
      out.push_back(Suppression{id, file.path, target, reason, false});
    }
  }
  return out;
}

void apply_suppressions(std::vector<Suppression>& suppressions,
                        std::vector<Finding>& findings) {
  for (Finding& f : findings) {
    if (f.rule == "S3") continue;
    for (Suppression& s : suppressions) {
      if (s.rule == f.rule && s.line == f.line) {
        f.suppressed = true;
        f.reason = s.reason;
        s.used = true;
        break;
      }
    }
  }
}

void run_rules(const FileScan& file,
               const std::vector<const Rule*>& selected,
               std::vector<Finding>& out) {
  for (const Rule* rule : selected) {
    if (rule->applicable(file)) rule->check(*rule, file, out);
  }
}

}  // namespace detlint
