//go:build race

package server

// raceEnabled reports whether this test binary runs under the race
// detector; the kill -9 drills then build wfserver with -race too.
const raceEnabled = true
