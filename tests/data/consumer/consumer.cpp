// Runs one small experiment through the installed headers and library.
#include <cstdio>

#include "app/experiment.h"
#include "common/config.h"

int main() {
  using namespace propsim;
  const SpecResult parsed = ExperimentSpec::from_config(Config::parse(
      "nodes = 50\nhorizon = 600\nsample_interval = 300\nqueries = 200\n"));
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s", parsed.error_report().c_str());
    return 2;
  }
  const ExperimentResult result = run_experiment(parsed.spec());
  std::printf("%s %.1f -> %.1f, %llu exchanges\n",
              result.metric_name.c_str(), result.initial_value,
              result.final_value,
              static_cast<unsigned long long>(result.exchanges));
  return 0;
}
