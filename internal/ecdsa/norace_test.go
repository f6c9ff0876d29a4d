//go:build !race

package ecdsa

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
