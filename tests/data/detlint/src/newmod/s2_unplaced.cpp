// Fixture: a src/ directory the layer table does not name is an S2
// finding (line 1), so a new module must be placed in the order.
#include "common/check.h"

int use() { return 6; }
