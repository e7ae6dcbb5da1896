#include <cstdlib>

/* sdslint: allow(det-rand) */
int BlockComment() { return rand(); }

const char* const kMarker = "sdslint: allow(det-rand)"; int Str() { return rand(); }

// Mentioning the marker mid-sentence, as in sdslint: allow(det-rand), is prose.
int Prose() { return rand(); }
