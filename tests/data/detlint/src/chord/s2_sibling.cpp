// Fixture: S2's layer order is strict. chord/ and can/ share a rank, so
// chord/ may include overlay/ below it but not its sibling can/.
#include "overlay/overlay_network.h"

#include "can/can_space.h"

int use() { return 5; }
