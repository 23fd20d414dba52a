// propsim_lint — offline protocol-invariant audit of overlay snapshots.
//
//   propsim_lint [options] <graph.edges>
//
//   --baseline FILE   pre-run snapshot; enables the conservation rules
//                     (degree-conservation, prop-g-isomorphism)
//   --rules a,b,c     run only the named rules, each once, in catalog
//                     order (default: all applicable)
//   --list-rules      print the rule catalog and exit
//   --strict          warnings also fail the audit
//   --quiet           suppress the per-rule summary, print findings only
//
// Snapshots are graph_io edge-list dumps (save_graph / graph_to_edge_list),
// read by snapshot_from_edge_list (analysis/lint_rules.h), the one
// edge-list reader. Parsing is deliberately lenient: self-loops, parallel
// edges and out-of-range endpoints load fine and are *flagged*, which is
// the point — a corrupt dump must produce findings, not a crash.
//
// Exit codes: 0 clean, 1 findings at failing severity, 2 usage/IO error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariant_checker.h"
#include "app/sweep.h"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--baseline FILE] [--rules a,b,c] [--strict] [--quiet]\n"
      "       %*s [--list-rules] <graph.edges>\n",
      argv0, static_cast<int>(std::string(argv0).size()), "");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace propsim;

  std::string graph_path;
  std::string baseline_path;
  std::vector<std::string> rule_names;
  bool strict = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (arg == "--list-rules") {
      for (const LintRule& rule : lint_rules()) {
        std::printf("%-22s %s\n", std::string(rule.name).c_str(),
                    std::string(rule.description).c_str());
      }
      return 0;
    }
    if (arg == "--strict") {
      strict = true;
      continue;
    }
    if (arg == "--quiet") {
      quiet = true;
      continue;
    }
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
      continue;
    }
    if (arg == "--rules" && i + 1 < argc) {
      rule_names = split_commas(argv[++i]);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "propsim_lint: unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
    if (!graph_path.empty()) {
      std::fprintf(stderr, "propsim_lint: more than one snapshot given\n");
      return 2;
    }
    graph_path = arg;
  }
  if (graph_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  for (const std::string& name : rule_names) {
    if (find_lint_rule(name) == nullptr) {
      std::fprintf(stderr, "propsim_lint: unknown rule '%s'\n",
                   name.c_str());
      return 2;
    }
  }

  auto load = [](const std::string& path, SnapshotGraph& snap) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "propsim_lint: cannot read %s\n", path.c_str());
      return false;
    }
    std::string err;
    if (!snapshot_from_edge_list(text, snap, &err)) {
      std::fprintf(stderr, "propsim_lint: %s: %s\n", path.c_str(),
                   err.c_str());
      return false;
    }
    return true;
  };

  SnapshotGraph snap;
  if (!load(graph_path, snap)) return 2;
  SnapshotGraph baseline;
  LintContext ctx;
  ctx.graph = &snap;
  if (!baseline_path.empty()) {
    if (!load(baseline_path, baseline)) return 2;
    ctx.baseline = &baseline;
  }

  const LintReport report = run_lint(ctx, rule_names);

  std::fputs(report.to_string().c_str(), stdout);
  if (!quiet) {
    std::printf("%zu rule(s) run, %zu skipped; %zu error(s), %zu "
                "warning(s)\n",
                report.rules_run, report.rules_skipped,
                report.error_count(), report.warning_count());
  }
  const bool failed =
      report.error_count() > 0 || (strict && report.warning_count() > 0);
  return failed ? 1 : 0;
}
