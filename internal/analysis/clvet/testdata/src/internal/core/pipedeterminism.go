// Testdata for the pipedeterminism analyzer: pipeline packages must
// not let wall clocks, global math/rand, or map iteration order reach
// outputs or serialized state. The directory is internal/core, so the
// package is in the analyzer's built-in pipeline scope.
package core

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// clocks exercises the wall-clock rules.
func clocks() time.Duration {
	t0 := time.Now()             // want `wall-clock call time\.Now`
	time.Sleep(time.Millisecond) // want `wall-clock call time\.Sleep`
	return time.Since(t0)        // want `wall-clock call time\.Since`
}

// allowedClock carries a justified suppression and is clean.
func allowedClock() time.Time {
	//repute:allow pipedeterminism -- ingest heartbeat uses host time by design
	return time.Now()
}

// unjustifiedAllow is not honored: both the directive and the call fire.
func unjustifiedAllow() time.Time {
	/* want `without a justification` */ //repute:allow pipedeterminism
	return time.Now()                    // want `wall-clock call time\.Now`
}

// randomness: package-level math/rand shares ambient global state;
// methods on a seeded *rand.Rand are deterministic.
func randomness() int {
	n := rand.Intn(10) // want `global math/rand call rand\.Intn`
	rng := rand.New(rand.NewSource(42))
	return n + rng.Intn(10)
}

// duration arithmetic on time values is fine; only the listed
// package-level functions are clock reads.
func durationMath(d time.Duration) float64 {
	return d.Seconds()
}

// collectUnsorted lets map order determine element order.
func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `map iteration order determines the element order of keys`
	}
	return keys
}

// collectSorted is the collect-then-sort idiom and is clean.
func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// innerScratch appends to a slice declared inside the range body.
func innerScratch(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		local := []int{}
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// emit writes in map order.
func emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `map iteration order reaches an output`
	}
}

// send leaks map order through a channel.
func send(ch chan string, m map[string]bool) {
	for k := range m {
		ch <- k // want `map iteration order reaches a channel send`
	}
}

// floatSums: scalar float accumulation in map order is order-sensitive;
// integer tallies and per-key writes are exempt.
func floatSums(m map[string]float64) (float64, int) {
	var sum float64
	var n int
	out := map[string]float64{}
	for k, v := range m {
		sum += v // want `float accumulation in map-iteration order`
		n++
		out[k] += v
	}
	return sum, n
}

// allowedRange suppresses the whole range statement.
func allowedRange(m map[string]int) []string {
	var keys []string
	//repute:allow pipedeterminism -- debug dump, order-insensitive consumer
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
