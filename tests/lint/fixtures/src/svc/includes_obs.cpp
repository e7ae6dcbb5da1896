// Seeded violation: svc sits above obs in the DAG, but obs is a restricted
// layer and svc is not among its dependents — the service's durable state
// goes through the common/snapshot.h codec, never the observability plane
// (layer-dag).
#include "obs/rollup.h"
