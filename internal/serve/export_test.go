package serve

import "math"

// SavedFrontier exposes a shard's saved frontier to the external tests:
// the frontier captured with its last snapshot the store saved.
func SavedFrontier(s *Server, shard int) float64 {
	return math.Float64frombits(s.saved[shard].Load())
}
