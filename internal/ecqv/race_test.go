//go:build race

package ecqv

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so math/big's pooled scratch turns into extra
// allocations that vary from run to run, and an allocation count
// measured under it gates nothing.
const raceEnabled = true
