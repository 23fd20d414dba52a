// Robustness — the damage envelope under byzantine peers.
//
// Sweeps the latency-liar fraction over {0, 5%, 20%, 50%} for both
// PROP-G and PROP-O on the unstructured overlay, then adds one
// free-rider/dropper mix row (PROP-O) and one coordinated eclipse row
// (PROP-G, auto target). For every row the bench reports the exchange
// success ratio, the converged lookup latency and its degradation
// against the honest row of the same protocol, plus the adversary
// counters. Liars corrupt MIN_VAR *decisions*, never applied plans, so
// the overlay structure stays sound (Theorems 1/2) and the envelope is
// purely a convergence-quality story: the verdict checks that honest
// rows stay byzantine-free, that attacks visibly bite, that heavier
// cohorts never help, and that every run ends connected. Roles come
// from a seed-derived hash (seed + 257), so the curve is reproducible.
// The rows are independent simulations and run together through
// run_sweep, the runner propsim_sweep uses.
// Writes BENCH_adversary.json (schema propsim.bench.adversary) for
// CI's perf/robustness gate.
#include <cstdio>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/result_json.h"
#include "bench_util.h"
#include "common/config.h"
#include "common/table.h"

namespace propsim::bench {
namespace {

struct Row {
  std::string protocol;  // "prop-g" / "prop-o"
  std::string model;     // "honest" / "liar" / "mix" / "eclipse"
  double fraction = 0.0;
  double success_ratio = 0.0;  // exchanges / attempts
  double final_metric = 0.0;   // converged lookup_ms
  double degradation = 0.0;    // final vs the same protocol's honest row
  std::uint64_t lies = 0;
  std::uint64_t drops = 0;
  std::uint64_t freeride_skips = 0;
  std::uint64_t eclipse_attempts = 0;
  std::uint64_t eclipse_captures = 0;
  std::uint64_t eclipse_held = 0;
  bool connected = false;
};

Config config_for(const BenchOptions& opts, const char* protocol,
                  const std::string& adversary_keys) {
  const std::size_t n = opts.scale_n(400);
  const double horizon = opts.scale_t(7200.0);
  char text[768];
  std::snprintf(text, sizeof(text),
                "overlay = gnutella\n"
                "protocol = %s\n"
                "nodes = %zu\n"
                "seed = %llu\n"
                "horizon = %.0f\n"
                "sample_interval = %.0f\n"
                "queries = %zu\n"
                "model_message_delays = true\n",
                protocol, n, static_cast<unsigned long long>(opts.seed),
                horizon, horizon / 12.0, opts.scale_q(4000));
  return Config::parse(std::string(text) + adversary_keys);
}

/// One envelope row before it runs: the protocol, the adversary model
/// and cohort fraction, and the spec keys that configure them.
struct RowPlan {
  const char* protocol;
  const char* model;
  double fraction;
  std::string adversary_keys;
};

Row make_row(const RowPlan& plan, const ExperimentResult& r) {
  Row row;
  row.protocol = plan.protocol;
  row.model = plan.model;
  row.fraction = plan.fraction;
  row.success_ratio = r.attempts > 0
                          ? static_cast<double>(r.exchanges) /
                                static_cast<double>(r.attempts)
                          : 0.0;
  row.final_metric = r.final_value;
  row.lies = r.adversary_lies;
  row.drops = r.adversary_drops;
  row.freeride_skips = r.adversary_freeride_skips;
  row.eclipse_attempts = r.adversary_eclipse_attempts;
  row.eclipse_captures = r.adversary_eclipse_captures;
  row.eclipse_held = r.adversary_eclipse_held;
  row.connected = r.connected;
  return row;
}

std::string liar_keys(double fraction) {
  if (fraction <= 0.0) return "";
  char text[160];
  std::snprintf(text, sizeof(text),
                "adversary_liar_fraction = %.2f\n"
                "adversary_lie_factor = 0.5\n",
                fraction);
  return text;
}

int run(const BenchOptions& opts) {
  print_header(
      "Adversary envelope — PROP under liars, free-riders, droppers "
      "and an eclipse cohort",
      "byzantine peers degrade convergence quality but never corrupt "
      "the overlay structure: honest runs stay byzantine-free, heavier "
      "cohorts never help, and every run ends connected");

  const double fractions[] = {0.0, 0.05, 0.20, 0.50};
  std::vector<RowPlan> plans;
  for (const char* protocol : {"prop-g", "prop-o"}) {
    for (const double f : fractions) {
      plans.push_back({protocol, f > 0.0 ? "liar" : "honest", f,
                       liar_keys(f)});
    }
  }
  plans.push_back({"prop-o", "mix", 0.15,
                   "adversary_freeride_fraction = 0.10\n"
                   "adversary_dropper_fraction = 0.05\n"
                   "adversary_drop_probability = 0.5\n"});
  plans.push_back({"prop-g", "eclipse", 0.10,
                   "adversary_eclipse_fraction = 0.10\n"
                   "adversary_eclipse_target = auto\n"});
  std::vector<SweepCombo> combos;
  for (const RowPlan& plan : plans) {
    combos.push_back(
        {config_for(opts, plan.protocol, plan.adversary_keys),
         std::string(plan.protocol) + " " + plan.model + " " +
             Table::fmt(plan.fraction, 2)});
  }
  const std::vector<ExperimentResult> results = run_or_exit(combos);

  std::vector<Row> rows;
  double honest_final[2] = {0.0, 0.0};  // [0] = prop-g, [1] = prop-o
  for (std::size_t i = 0; i < plans.size(); ++i) {
    rows.push_back(make_row(plans[i], results[i]));
    if (rows.back().model == "honest") {
      honest_final[rows.back().protocol == "prop-g" ? 0 : 1] =
          rows.back().final_metric;
    }
  }
  std::string csv =
      "protocol,model,fraction,success_ratio,final_lookup_ms,degradation,"
      "lies,drops,freeride_skips,eclipse_attempts,eclipse_captures,"
      "eclipse_held,connected\n";
  for (Row& row : rows) {
    const double honest = honest_final[row.protocol == "prop-g" ? 0 : 1];
    row.degradation = row.model != "honest" && honest > 0.0
                          ? row.final_metric / honest
                          : 1.0;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s,%s,%.2f,%.4f,%.1f,%.3f,%llu,%llu,%llu,%llu,%llu,"
                  "%llu,%d\n",
                  row.protocol.c_str(), row.model.c_str(), row.fraction,
                  row.success_ratio, row.final_metric, row.degradation,
                  static_cast<unsigned long long>(row.lies),
                  static_cast<unsigned long long>(row.drops),
                  static_cast<unsigned long long>(row.freeride_skips),
                  static_cast<unsigned long long>(row.eclipse_attempts),
                  static_cast<unsigned long long>(row.eclipse_captures),
                  static_cast<unsigned long long>(row.eclipse_held),
                  row.connected ? 1 : 0);
    csv += line;
  }
  print_csv_block("adversary_envelope", csv);

  // The envelope verdict, with tolerance for simulation noise:
  //  - honest rows record zero byzantine activity;
  //  - the heaviest liar cohort visibly lies and its success ratio does
  //    not beat the honest row's by more than noise;
  //  - liar rows never materially *improve* the converged latency (the
  //    envelope opens upward only);
  //  - the mix row shows free-riding and commit drops, the eclipse row
  //    shows steered probes;
  //  - every run ends with a connected overlay (structure is intact).
  bool honest_clean = true;
  bool attacks_bite = true;
  bool never_helps = true;
  bool all_connected = true;
  double worst_degradation = 1.0;
  for (const Row& row : rows) {
    all_connected = all_connected && row.connected;
    if (row.degradation > worst_degradation) {
      worst_degradation = row.degradation;
    }
    if (row.model == "honest") {
      honest_clean = honest_clean && row.lies == 0 && row.drops == 0 &&
                     row.freeride_skips == 0 && row.eclipse_attempts == 0;
      continue;
    }
    if (row.model == "liar") {
      if (row.fraction >= 0.20) attacks_bite = attacks_bite && row.lies > 0;
      never_helps = never_helps && row.degradation > 0.90;
    }
    if (row.model == "mix") {
      attacks_bite =
          attacks_bite && row.freeride_skips > 0 && row.drops > 0;
    }
    if (row.model == "eclipse") {
      attacks_bite = attacks_bite && row.eclipse_attempts > 0;
    }
  }
  // Lies scale with the cohort: a bigger liar fraction flips more gate
  // decisions. (The raw success *ratio* is not a degradation axis here —
  // liars that deflate Var to force exchanges through inflate the
  // commit count while making the commits worthless; the converged
  // latency above is what must not improve.)
  for (std::size_t p = 0; p < 2; ++p) {
    attacks_bite = attacks_bite &&
                   rows[p * 4 + 1].lies <= rows[p * 4 + 2].lies &&
                   rows[p * 4 + 2].lies <= rows[p * 4 + 3].lies;
  }
  const bool pass =
      honest_clean && attacks_bite && never_helps && all_connected;

  Json doc = Json::object();
  doc.set("schema", "propsim.bench.adversary");
  doc.set("version", 1);
  doc.set("quick", opts.quick);
  doc.set("seed", opts.seed);
  doc.set("hardware", hardware_info());
  Json json_rows = Json::array();
  for (const Row& row : rows) {
    Json r = Json::object();
    r.set("protocol", row.protocol)
        .set("model", row.model)
        .set("fraction", row.fraction)
        .set("success_ratio", row.success_ratio)
        .set("final_lookup_ms", row.final_metric)
        .set("degradation", row.degradation)
        .set("lies", row.lies)
        .set("drops", row.drops)
        .set("freeride_skips", row.freeride_skips)
        .set("eclipse_attempts", row.eclipse_attempts)
        .set("eclipse_captures", row.eclipse_captures)
        .set("eclipse_held", row.eclipse_held)
        .set("connected", row.connected);
    json_rows.push_back(std::move(r));
  }
  doc.set("rows", std::move(json_rows));
  doc.set("worst_degradation", worst_degradation);
  doc.set("honest_clean", honest_clean);
  doc.set("attacks_bite", attacks_bite);
  doc.set("never_helps", never_helps);
  doc.set("all_connected", all_connected);
  doc.set("pass", pass);

  const std::string out = doc.dump(2);
  if (std::FILE* f = std::fopen("BENCH_adversary.json", "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_adversary.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_adversary.json\n");
    return 1;
  }

  char detail[320];
  std::snprintf(detail, sizeof(detail),
                "worst degradation %.2fx across %zu rows; honest rows "
                "byzantine-free=%d; attacks visible=%d; connected=%d",
                worst_degradation, rows.size(), honest_clean ? 1 : 0,
                attacks_bite ? 1 : 0, all_connected ? 1 : 0);
  print_verdict(pass, detail);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
