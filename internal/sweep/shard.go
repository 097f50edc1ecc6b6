package sweep

import "fmt"

// Split tiles a normalized spec's population [0, Wearers) into n shards:
// the same sweep over contiguous wearer ranges, sizes differing by at
// most one with the remainder up front, each canonical through
// Normalize. The tiling is deterministic, so a restarted coordinator
// re-derives the same shards.
func (s *Spec) Split(n int) ([]Spec, error) {
	if n < 1 || n > s.Wearers {
		return nil, fmt.Errorf("shard count %d outside [1, %d]", n, s.Wearers)
	}
	base, extra := s.Wearers/n, s.Wearers%n
	shards := make([]Spec, n)
	first := 0
	for k := range shards {
		end := first + base
		if k < extra {
			end++
		}
		shard := *s
		shard.FirstWearer, shard.EndWearer = first, end
		if err := shard.Normalize(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		shards[k] = shard
		first = end
	}
	return shards, nil
}
