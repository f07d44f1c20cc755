//go:build race

package main

// raceEnabled reports that this build runs under the race detector,
// whose runtime allocates inside measured windows; allocation-count
// pins skip themselves when it is set.
const raceEnabled = true
