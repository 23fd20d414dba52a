// Fixture: S2's layer order. overlay/ may include itself and the layers
// below it (common, topology), but not core/ above it or chord/, a
// protocol layer that sits on top of it.
#include "overlay/overlay_network.h"

#include "common/check.h"

#include "topology/graph.h"

#include "core/prop_engine.h"

#include "chord/chord_ring.h"

int use() { return 4; }
