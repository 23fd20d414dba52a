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
  f.rule = std::string(rule.id());
  f.rule_name = std::string(rule.name());
  f.severity = rule.severity();
  f.file = file.path;
  f.line = line;
  f.message = std::move(message);
  f.hint = std::string(rule.hint());
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

// --------------------------------------------------- D1 unordered-iteration
class UnorderedIterationRule final : public Rule {
 public:
  std::string_view id() const override { return "D1"; }
  std::string_view name() const override { return "unordered-iteration"; }
  std::string_view description() const override {
    return "std::unordered_* in simulation-linked code (src/): iteration "
           "order is unspecified and varies across standard libraries, "
           "silently breaking bit-identical runs";
  }
  std::string_view hint() const override {
    return "use std::map/std::set or a sorted vector; if the container "
           "is only probed (never iterated), suppress with a reason";
  }
  bool applicable(const FileScan& file) const override {
    return starts_with(file.path, "src/");
  }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
          ident_in(toks[i + 2], kUnorderedContainers)) {
        emit(*this, file, toks[i + 2].line,
             "std::" + toks[i + 2].text + " in a simulation-linked file",
             out);
      }
    }
  }
};

// --------------------------------------------------- D2 wall-clock-entropy
class WallClockEntropyRule final : public Rule {
 public:
  std::string_view id() const override { return "D2"; }
  std::string_view name() const override { return "wall-clock-entropy"; }
  std::string_view description() const override {
    return "ambient entropy or wall-clock reads (rand, srand, "
           "std::random_device, time(nullptr), system_clock::now()) "
           "outside bench timing code";
  }
  std::string_view hint() const override {
    return "derive every stream from the run seed (seed + prime "
           "convention, or Rng::split()); benches may read clocks";
  }
  bool applicable(const FileScan& file) const override {
    return !contains(file.path, "bench");
  }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
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
        emit(*this, file, toks[i].line,
             "system_clock::now() reads the wall clock", out);
        continue;
      }
      if (foreign_scope(i)) continue;
      if (ident_in(toks[i], {"rand", "srand"}) && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(")) {
        emit(*this, file, toks[i].line,
             toks[i].text + "() draws from ambient global state", out);
        continue;
      }
      if (is_ident(toks[i], "random_device")) {
        emit(*this, file, toks[i].line,
             "std::random_device is nondeterministic by design", out);
        continue;
      }
      if (is_ident(toks[i], "time") && i + 3 < toks.size() &&
          is_punct(toks[i + 1], "(") &&
          (ident_in(toks[i + 2], {"nullptr", "NULL"}) ||
           toks[i + 2].text == "0") &&
          is_punct(toks[i + 3], ")")) {
        emit(*this, file, toks[i].line,
             "time(" + toks[i + 2].text + ") reads the wall clock", out);
        continue;
      }
    }
  }
};

// ------------------------------------------------------- D3 thread-id-logic
class ThreadIdLogicRule final : public Rule {
 public:
  std::string_view id() const override { return "D3"; }
  std::string_view name() const override { return "thread-id-logic"; }
  std::string_view description() const override {
    return "std::this_thread::get_id() feeding logic: thread ids are "
           "scheduler-assigned and differ run to run";
  }
  std::string_view hint() const override {
    return "pass an explicit worker index into the task instead";
  }
  bool applicable(const FileScan&) const override { return true; }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (is_ident(toks[i], "this_thread") &&
          is_punct(toks[i + 1], "::") && is_ident(toks[i + 2], "get_id")) {
        emit(*this, file, toks[i].line,
             "this_thread::get_id() is not stable across runs", out);
      }
    }
  }
};

// ------------------------------------------------------ D4 pointer-keyed-map
class PointerKeyedMapRule final : public Rule {
 public:
  std::string_view id() const override { return "D4"; }
  std::string_view name() const override { return "pointer-keyed-map"; }
  std::string_view description() const override {
    return "associative container keyed by a raw pointer: address order "
           "(and hash) depends on allocator behavior, so iteration leaks "
           "nondeterminism";
  }
  std::string_view hint() const override {
    return "key by a stable id (SlotId, NodeId, index) instead of an "
           "object address";
  }
  bool applicable(const FileScan&) const override { return true; }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
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
        emit(*this, file, toks[i + 2].line,
             "std::" + toks[i + 2].text + " keyed by raw pointer type",
             out);
      }
    }
  }
};

// ------------------------------------------------- D5 fp-accumulation-order
class FpAccumulationOrderRule final : public Rule {
 public:
  std::string_view id() const override { return "D5"; }
  std::string_view name() const override { return "fp-accumulation-order"; }
  std::string_view description() const override {
    return "floating-point accumulation while iterating an unordered "
           "container in src/measure/: FP addition does not commute, so "
           "the sum depends on hash-bucket order";
  }
  std::string_view hint() const override {
    return "accumulate in index order (vector indexed by slot/query id) "
           "and reduce in a fixed sequence";
  }
  bool applicable(const FileScan& file) const override {
    return starts_with(file.path, "src/measure/");
  }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
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
          emit(*this, file, toks[j].line,
               "compound accumulation inside iteration over unordered "
               "container",
               out);
        }
      }
    }
  }
};

// ------------------------------------------------- D6 lock-across-submit
class LockAcrossSubmitRule final : public Rule {
 public:
  std::string_view id() const override { return "D6"; }
  std::string_view name() const override { return "lock-across-submit"; }
  std::string_view description() const override {
    return "mutex guard held across a ThreadPool submit call: the task "
           "may run (and block) before the guard releases, inviting "
           "deadlock and schedule-dependent ordering";
  }
  std::string_view hint() const override {
    return "scope the guard so it releases before submit, or move the "
           "locked work into the task";
  }
  bool applicable(const FileScan&) const override { return true; }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    struct Guard {
      int depth;
      int line;
    };
    std::vector<Guard> guards;
    int depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (is_punct(toks[i], "{")) {
        ++depth;
        continue;
      }
      if (is_punct(toks[i], "}")) {
        --depth;
        while (!guards.empty() && guards.back().depth > depth) {
          guards.pop_back();
        }
        continue;
      }
      if (ident_in(toks[i], {"lock_guard", "unique_lock", "scoped_lock"})) {
        guards.push_back(Guard{depth, toks[i].line});
        continue;
      }
      if (!guards.empty() && is_ident(toks[i], "submit") && i > 0 &&
          (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
          i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
        emit(*this, file, toks[i].line,
             "submit() called with a mutex guard held (guard from line " +
                 std::to_string(guards.back().line) + ")",
             out);
      }
    }
  }
};

// ------------------------------------------------- D7 underived-rng-seed
class UnderivedRngSeedRule final : public Rule {
 public:
  std::string_view id() const override { return "D7"; }
  std::string_view name() const override { return "underived-rng-seed"; }
  std::string_view description() const override {
    return "Rng constructed without an explicit seed: every stream must "
           "derive from the run seed so fault/churn/protocol draws stay "
           "independent and reproducible";
  }
  std::string_view hint() const override {
    return "seed with `spec.seed + <prime>` (the faults layer uses "
           "seed + 131) or split an existing stream via Rng::split()";
  }
  bool applicable(const FileScan& file) const override {
    // Headers declare Rng members that constructors seed later; the
    // default-seed hazard is default-constructed locals/temporaries.
    return !file.is_header;
  }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
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
        emit(*this, file, toks[i].line,
             "Rng '" + toks[i + 1].text + "' default-constructed", out);
        continue;
      }
      // `Rng()` / `Rng{}` — default-constructed temporary.
      if (i + 1 < toks.size() &&
          ((is_punct(toks[i + 1], "(") && i + 2 < toks.size() &&
            is_punct(toks[i + 2], ")")) ||
           (is_punct(toks[i + 1], "{") && i + 2 < toks.size() &&
            is_punct(toks[i + 2], "}")))) {
        emit(*this, file, toks[i].line, "Rng temporary default-constructed",
             out);
      }
    }
  }
};

// ------------------------------------------ D8 (stale determinism debt)
class DeterminismTodoRule final : public Rule {
 public:
  std::string_view id() const override { return "D8"; }
  std::string_view name() const override { return "determinism-todo"; }
  std::string_view description() const override {
    return "TODO/FIXME marker admitting a determinism or ordering "
           "problem: tracked debt in exactly the bug class the golden "
           "tests cannot localize";
  }
  std::string_view hint() const override {
    return "fix it or file an issue and reference it from the comment";
  }
  Severity severity() const override { return Severity::kWarning; }
  bool applicable(const FileScan&) const override { return true; }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
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
        emit(*this, file, cm.line,
             "comment flags unresolved determinism debt", out);
      }
    }
  }
};

// ---------------------------------------------------- S1 pragma-once
class PragmaOnceRule final : public Rule {
 public:
  std::string_view id() const override { return "S1"; }
  std::string_view name() const override { return "pragma-once"; }
  std::string_view description() const override {
    return "header without #pragma once";
  }
  std::string_view hint() const override {
    return "add #pragma once after the file comment";
  }
  bool applicable(const FileScan& file) const override {
    return file.is_header;
  }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
    for (const Directive& d : file.directives) {
      std::string flat;
      for (const char c : d.text) {
        if (!std::isspace(static_cast<unsigned char>(c))) flat += c;
      }
      if (flat == "#pragmaonce") return;
    }
    emit(*this, file, 1, "missing #pragma once", out);
  }
};

// ---------------------------------------------------- S2 include-hygiene
class IncludeHygieneRule final : public Rule {
 public:
  std::string_view id() const override { return "S2"; }
  std::string_view name() const override { return "include-hygiene"; }
  std::string_view description() const override {
    return "include hygiene: no parent-relative quoted includes, no "
           "<bits/...> internals, no duplicate includes";
  }
  std::string_view hint() const override {
    return "include project headers root-relative (the build exports "
           "src/ and tools/) and public standard headers only, once";
  }
  bool applicable(const FileScan&) const override { return true; }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
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
        emit(*this, file, d.line,
             "parent-relative include \"" + spec + "\"", out);
      }
      if (open == '<' && starts_with(spec, "bits/")) {
        emit(*this, file, d.line,
             "libstdc++ internal header <" + spec + ">", out);
      }
      const std::string key = std::string(1, open) + spec;
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        emit(*this, file, d.line, "duplicate include of " + spec, out);
      } else {
        seen.push_back(key);
      }
    }
  }
};

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
    if (id.empty() || RuleRegistry::instance().find(id) == nullptr) {
      ids.clear();
      return false;
    }
    ids.push_back(id);
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
class SuppressionSyntaxRule final : public Rule {
 public:
  std::string_view id() const override { return "S3"; }
  std::string_view name() const override { return "suppression-syntax"; }
  std::string_view description() const override {
    return "malformed suppression marker: unknown rule id, missing "
           "colon, or empty reason";
  }
  std::string_view hint() const override {
    return "write the marker as id list in parentheses, a colon, then a "
           "non-empty reason (see docs/ANALYSIS.md)";
  }
  bool applicable(const FileScan&) const override { return true; }
  void check(const FileScan& file,
             std::vector<Finding>& out) const override {
    for (const Comment& cm : file.comments) {
      bool present = false;
      std::vector<std::string> ids;
      std::string reason;
      if (!parse_marker(cm.text, present, ids, reason) && present) {
        emit(*this, file, cm.line, "malformed suppression marker", out);
      }
    }
  }
};

}  // namespace

RuleRegistry& RuleRegistry::instance() {
  static RuleRegistry registry;
  return registry;
}

void RuleRegistry::add(std::unique_ptr<Rule> rule) {
  rules_.push_back(std::move(rule));
}

const Rule* RuleRegistry::find(std::string_view id_or_name) const {
  for (const auto& rule : rules_) {
    if (rule->id() == id_or_name || rule->name() == id_or_name) {
      return rule.get();
    }
  }
  return nullptr;
}

void register_builtin_rules() {
  static const bool once = [] {
    RuleRegistry& reg = RuleRegistry::instance();
    reg.add(std::make_unique<UnorderedIterationRule>());
    reg.add(std::make_unique<WallClockEntropyRule>());
    reg.add(std::make_unique<ThreadIdLogicRule>());
    reg.add(std::make_unique<PointerKeyedMapRule>());
    reg.add(std::make_unique<FpAccumulationOrderRule>());
    reg.add(std::make_unique<LockAcrossSubmitRule>());
    reg.add(std::make_unique<UnderivedRngSeedRule>());
    reg.add(std::make_unique<DeterminismTodoRule>());
    reg.add(std::make_unique<PragmaOnceRule>());
    reg.add(std::make_unique<IncludeHygieneRule>());
    reg.add(std::make_unique<SuppressionSyntaxRule>());
    return true;
  }();
  (void)once;
}

std::vector<Suppression> collect_suppressions(const FileScan& file) {
  register_builtin_rules();
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

void run_rules(const FileScan& file, const std::vector<const Rule*>& rules,
               std::vector<Finding>& out) {
  for (const Rule* rule : rules) {
    if (rule->applicable(file)) rule->check(file, out);
  }
}

}  // namespace detlint
