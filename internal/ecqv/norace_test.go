//go:build !race

package ecqv

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
