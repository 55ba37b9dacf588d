//go:build race

package simrun

// Under the race detector sync.Pool drops a random quarter of its Puts, so
// a quarter of the shards re-allocate the pooled RNG (a Rand and its
// source) and a quarter the pooled task.
func init() { poolDropAllocs = 0.25*2 + 0.25 }
