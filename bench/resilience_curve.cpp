// Robustness — graceful degradation under message loss, mid-exchange
// crashes and a scheduled stub-domain partition.
//
// Sweeps per-message loss over {0, 1%, 5%, 20%} on a PROP-O overlay
// with a fixed crash probability and one partition window (the densest
// stub domain loses its gateway for the middle fifth of the run), and
// reports how the exchange success ratio, the converged lookup latency
// and event-driven lookup success degrade. A fault-free reference run
// anchors the convergence-slowdown column. The fault plan draws from
// its own seeded RNG stream, so the whole curve is reproducible. The
// runs are independent and go through run_sweep together, the runner
// propsim_sweep uses.
#include <cstdio>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "bench_util.h"
#include "common/config.h"
#include "common/table.h"

namespace propsim::bench {
namespace {

struct Row {
  double loss = 0.0;
  std::size_t burst_len = 0;      // 0 = Bernoulli, >0 = Gilbert-Elliott
  double success_ratio = 0.0;     // exchanges / attempts
  double final_metric = 0.0;      // converged lookup_ms
  double slowdown = 0.0;          // final vs fault-free final
  double unreachable_frac = 0.0;  // event lookups cut off by the fault plan
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t aborted_mid_commit = 0;
  std::uint64_t crashes = 0;
  std::uint64_t burst_losses = 0;
  bool connected = false;
};

Config config_for(const BenchOptions& opts, double loss, bool faults_on,
                  std::size_t burst_len = 0) {
  const std::size_t n = opts.scale_n(400);
  const double horizon = opts.scale_t(7200.0);
  char text[768];
  std::snprintf(text, sizeof(text),
                "overlay = gnutella\n"
                "protocol = prop-o\n"
                "nodes = %zu\n"
                "seed = %llu\n"
                "horizon = %.0f\n"
                "sample_interval = %.0f\n"
                "queries = %zu\n"
                "model_message_delays = true\n"
                "lookup_rate = 2\n",
                n, static_cast<unsigned long long>(opts.seed), horizon,
                horizon / 12.0, opts.scale_q(4000));
  std::string cfg(text);
  if (faults_on) {
    std::snprintf(text, sizeof(text),
                  "fault_loss = %.4f\n"
                  "fault_jitter = 0.2\n"
                  "fault_crash = 0.02\n"
                  "fault_partition_domain = auto\n"
                  "fault_partition_start = %.0f\n"
                  "fault_partition_end = %.0f\n",
                  loss, 0.4 * horizon, 0.6 * horizon);
    cfg += text;
    if (burst_len > 0) {
      std::snprintf(text, sizeof(text), "fault_loss_burst_len = %zu\n",
                    burst_len);
      cfg += text;
    }
  }
  return Config::parse(cfg);
}

int run(const BenchOptions& opts) {
  print_header(
      "Resilience curve — PROP-O under loss, crashes and a stub "
      "partition",
      "degradation is graceful and monotone: higher loss lowers the "
      "exchange success ratio and slows convergence without breaking "
      "overlay connectivity");

  const double losses[] = {0.0, 0.01, 0.05, 0.20};
  // Burst rows rerun each lossy point under Gilbert-Elliott loss with
  // mean burst length 8 at the same stationary loss rate — same loss
  // budget, correlated arrivals.
  constexpr std::size_t kBurstLen = 8;
  struct Point {
    double loss;
    std::size_t burst_len;
  };
  std::vector<Point> points;
  for (const double loss : losses) points.push_back({loss, 0});
  for (const double loss : losses) {
    if (loss > 0.0) points.push_back({loss, kBurstLen});
  }
  // The fault-free reference runs first; combo i + 1 is points[i].
  std::vector<SweepCombo> combos{
      {config_for(opts, 0.0, false), "fault-free reference"}};
  for (const Point& point : points) {
    combos.push_back({config_for(opts, point.loss, true, point.burst_len),
                      "loss=" + Table::fmt(point.loss, 2) + " burst_len=" +
                          std::to_string(point.burst_len)});
  }
  const std::vector<ExperimentResult> results = run_or_exit(combos);
  const ExperimentResult& reference = results[0];

  std::vector<Row> rows;
  std::vector<Row> burst_rows;
  std::string csv =
      "loss,burst_len,success_ratio,final_lookup_ms,slowdown,"
      "unreachable_frac,timeouts,retries,aborted_mid_commit,crashes,"
      "burst_losses\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentResult& r = results[i + 1];
    Row row;
    row.loss = points[i].loss;
    row.burst_len = points[i].burst_len;
    row.success_ratio =
        r.attempts > 0
            ? static_cast<double>(r.exchanges) /
                  static_cast<double>(r.attempts)
            : 0.0;
    row.final_metric = r.final_value;
    row.slowdown = r.final_value / reference.final_value;
    row.unreachable_frac =
        r.lookups_issued > 0
            ? static_cast<double>(r.lookups_unreachable) /
                  static_cast<double>(r.lookups_issued)
            : 0.0;
    row.timeouts = r.timeouts;
    row.retries = r.retries;
    row.aborted_mid_commit = r.aborted_mid_commit;
    row.crashes = r.fault_crashes;
    row.burst_losses = r.fault_burst_losses;
    row.connected = r.connected;

    char line[288];
    std::snprintf(line, sizeof(line),
                  "%.2f,%zu,%.4f,%.1f,%.3f,%.4f,%llu,%llu,%llu,%llu,"
                  "%llu\n",
                  row.loss, row.burst_len, row.success_ratio,
                  row.final_metric, row.slowdown, row.unreachable_frac,
                  static_cast<unsigned long long>(row.timeouts),
                  static_cast<unsigned long long>(row.retries),
                  static_cast<unsigned long long>(row.aborted_mid_commit),
                  static_cast<unsigned long long>(row.crashes),
                  static_cast<unsigned long long>(row.burst_losses));
    csv += line;
    (row.burst_len > 0 ? burst_rows : rows).push_back(row);
  }
  print_csv_block("resilience_curve", csv);

  // Graceful degradation, with tolerance for simulation noise: the
  // success ratio may not climb materially with loss, the converged
  // latency may not materially improve, the heaviest-loss row must be
  // visibly worse than the loss-free one, and every run must end with a
  // connected overlay (the partition heals, crash repair holds).
  bool success_monotone = true;
  bool latency_monotone = true;
  bool all_connected = true;
  bool partition_visible = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    all_connected = all_connected && rows[i].connected;
    partition_visible = partition_visible || rows[i].unreachable_frac > 0.0;
    if (i == 0) continue;
    if (rows[i].success_ratio > rows[i - 1].success_ratio * 1.05 + 0.01) {
      success_monotone = false;
    }
    if (rows[i].final_metric < rows[i - 1].final_metric * 0.90) {
      latency_monotone = false;
    }
  }
  const bool clearly_degrades =
      rows.back().success_ratio < rows.front().success_ratio &&
      rows.back().timeouts > 0;
  // Burst columns: every Gilbert-Elliott row must record correlated
  // losses, stay connected, and keep its total loss count in the same
  // regime as the Bernoulli row at the same rate (shared loss budget).
  bool bursts_visible = !burst_rows.empty();
  bool bursts_connected = true;
  for (const Row& row : burst_rows) {
    bursts_visible = bursts_visible && row.burst_losses > 0;
    bursts_connected = bursts_connected && row.connected;
  }
  const bool holds = success_monotone && latency_monotone &&
                     all_connected && partition_visible &&
                     clearly_degrades && bursts_visible && bursts_connected;

  char detail[400];
  std::snprintf(
      detail, sizeof(detail),
      "success ratio %.3f -> %.3f over loss 0 -> 20%%; slowdown %.2fx -> "
      "%.2fx vs fault-free; unreachable up to %.3f; connected=%d; burst "
      "rows (L=8): %zu, max burst_losses %llu, connected=%d",
      rows.front().success_ratio, rows.back().success_ratio,
      rows.front().slowdown, rows.back().slowdown,
      rows.back().unreachable_frac, all_connected, burst_rows.size(),
      static_cast<unsigned long long>(
          burst_rows.empty() ? 0 : burst_rows.back().burst_losses),
      bursts_connected);
  print_verdict(holds, detail);
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
