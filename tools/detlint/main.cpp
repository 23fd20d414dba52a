// detlint — determinism & concurrency static analysis for propsim.
//
// Scans C++ sources with a hand-rolled lexer (no clang dependency) and
// applies the rule registry in rules.cpp: D1-D8 determinism hazards,
// S1-S3 structural hygiene. Exit 0 when clean, 1 when unsuppressed
// error findings remain (warnings too under --strict), 2 on usage or
// I/O trouble.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "detlint/report.h"
#include "detlint/rules.h"
#include "detlint/scanner.h"

namespace {

namespace fs = std::filesystem;
using namespace detlint;

constexpr const char* kUsage = R"(usage: detlint [options] [path...]

Scans C++ sources under each path (default: src tools) for determinism
and concurrency hazards. Paths are resolved against --root.

options:
  --root DIR    repository root (default: current directory)
  --rules LIST  comma-separated rule ids/names to run (default: all)
  --list-rules  print the rule catalog and exit
  --json FILE   also write a propsim.lint v1 JSON report to FILE
  --quiet       hide suppressed findings and unused-marker notes
  --strict      warnings also fail the run (exit 1)

Suppress a finding inline with a marker comment:
  code();  // det-ok(D1): probed by key only, never iterated
An own-line marker covers the next source line. Each marker needs a
known rule id (comma list allowed) and a non-empty reason after the
colon; malformed markers are S3 findings and cannot be suppressed.
)";

struct Options {
  std::string root = ".";
  std::vector<std::string> rule_filter;
  std::vector<std::string> paths;
  std::string json_path;
  bool list_rules = false;
  bool quiet = false;
  bool strict = false;
};

bool parse_args(int argc, char** argv, Options& opt, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(flag) + " needs a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--root") {
      const char* v = need_value("--root");
      if (!v) return false;
      opt.root = v;
    } else if (arg == "--rules") {
      const char* v = need_value("--rules");
      if (!v) return false;
      std::stringstream ss(v);
      std::string id;
      while (std::getline(ss, id, ',')) {
        if (!id.empty()) opt.rule_filter.push_back(id);
      }
    } else if (arg == "--json") {
      const char* v = need_value("--json");
      if (!v) return false;
      opt.json_path = v;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--strict") {
      opt.strict = true;
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown option " + arg;
      return false;
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.paths.empty()) opt.paths = {"src", "tools"};
  return true;
}

// Collects scannable files under root/rel, returned root-relative with
// forward slashes, sorted for deterministic report order.
bool collect_files(const fs::path& root, const std::string& rel,
                   std::vector<std::string>& out, std::string& error) {
  const fs::path base = root / rel;
  std::error_code ec;
  if (fs::is_regular_file(base, ec)) {
    if (is_source_path(base.generic_string())) out.push_back(rel);
    return true;
  }
  if (!fs::is_directory(base, ec)) {
    error = "path not found: " + base.string();
    return false;
  }
  auto it = fs::recursive_directory_iterator(
      base, fs::directory_options::skip_permission_denied, ec);
  if (ec) {
    error = "cannot walk " + base.string() + ": " + ec.message();
    return false;
  }
  for (; it != fs::recursive_directory_iterator(); ++it) {
    const fs::path& p = it->path();
    const std::string name = p.filename().generic_string();
    if (it->is_directory(ec)) {
      if (name == "build" || name == ".git" || name == "third_party") {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    const std::string generic = p.generic_string();
    if (!is_source_path(generic)) continue;
    out.push_back(fs::relative(p, root, ec).generic_string());
  }
  return true;
}

void print_rule_catalog() {
  for (const auto& rule : RuleRegistry::instance().rules()) {
    std::cout << rule->id() << "  " << rule->name() << "  ("
              << (rule->severity() == Severity::kError ? "error"
                                                       : "warning")
              << ")\n    " << rule->description() << "\n    fix: "
              << rule->hint() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!parse_args(argc, argv, opt, error)) {
    std::cerr << "detlint: " << error << "\n" << kUsage;
    return 2;
  }

  register_builtin_rules();
  if (opt.list_rules) {
    print_rule_catalog();
    return 0;
  }

  std::vector<const Rule*> rules;
  if (opt.rule_filter.empty()) {
    for (const auto& rule : RuleRegistry::instance().rules()) {
      rules.push_back(rule.get());
    }
  } else {
    for (const std::string& id : opt.rule_filter) {
      const Rule* rule = RuleRegistry::instance().find(id);
      if (rule == nullptr) {
        std::cerr << "detlint: unknown rule '" << id
                  << "' (see --list-rules)\n";
        return 2;
      }
      rules.push_back(rule);
    }
    // S3 always runs: a broken marker must surface even when the rule
    // it names is filtered out.
    const Rule* s3 = RuleRegistry::instance().find("S3");
    if (std::find(rules.begin(), rules.end(), s3) == rules.end()) {
      rules.push_back(s3);
    }
  }

  const fs::path root = fs::path(opt.root);
  std::vector<std::string> files;
  for (const std::string& rel : opt.paths) {
    if (!collect_files(root, rel, files, error)) {
      std::cerr << "detlint: " << error << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Report report;
  for (const std::string& rel : files) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) {
      std::cerr << "detlint: cannot read " << (root / rel).string()
                << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const FileScan scan = scan_source(rel, buf.str());
    ++report.files_scanned;

    std::vector<Finding> findings;
    run_rules(scan, rules, findings);
    std::vector<Suppression> sups = collect_suppressions(scan);
    apply_suppressions(sups, findings);
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
    for (Finding& f : findings) {
      report.findings.push_back(std::move(f));
    }
    for (Suppression& s : sups) {
      report.suppression_total += 1;
      if (s.used) {
        report.suppression_used += 1;
      } else {
        report.unused.push_back(s);
      }
    }
  }

  render_text(report, std::cout, opt.quiet);
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path, std::ios::binary);
    if (!out) {
      std::cerr << "detlint: cannot write " << opt.json_path << "\n";
      return 2;
    }
    out << render_json(report);
  }

  const Severity gate = opt.strict ? Severity::kWarning : Severity::kError;
  return count_unsuppressed(report, gate) > 0 ? 1 : 0;
}
