package align

// DistanceDP is the plain dynamic-programming reference for semi-global
// edit distance: O(m*n) time. It returns the same (end, dist) contract as
// Distance and exists as the oracle the bit-vector path is tested against,
// and as the slow baseline in the verification ablation bench.
func DistanceDP(pattern, text []byte, maxDist int) (end, dist int) {
	m := len(pattern)
	if m == 0 {
		return 0, 0
	}
	col := lastRowDP(pattern, text)
	bestEnd, bestDist := -1, maxDist+1
	for j, d := range col {
		if j == 0 {
			continue // column 0 is the empty-text boundary, not a match end
		}
		if d < bestDist {
			bestDist, bestEnd = d, j
		}
	}
	if bestEnd < 0 {
		return -1, -1
	}
	return bestEnd, bestDist
}

// lastRowDP returns D[m][j] for j = 0..len(text) of the semi-global DP
// (free start in text: D[0][j] = 0; D[i][0] = i).
func lastRowDP(pattern, text []byte) []int {
	m, n := len(pattern), len(text)
	prev := make([]int, n+1) // row i-1
	cur := make([]int, n+1)  // row i
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if pattern[i-1] == text[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev
}

// OccurrencesDP is the reference for Occurrences.
func OccurrencesDP(pattern, text []byte, maxDist int, fn func(end, dist int)) {
	if len(pattern) == 0 {
		return
	}
	row := lastRowDP(pattern, text)
	for j := 1; j < len(row); j++ {
		if row[j] <= maxDist {
			fn(j, row[j])
		}
	}
}
