// The old name of the serial event loop, kept because
// perfbench/traced_run.cpp (frozen with the benchmark) still spells it.
#pragma once

#include "sim/scheduler.h"

namespace propsim {

using SerialScheduler = Scheduler;

}  // namespace propsim
