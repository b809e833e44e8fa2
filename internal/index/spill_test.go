package index

import "testing"

func TestPartitionOfSpreadsHashes(t *testing.T) {
	// Different hash values must not all collapse into one partition at
	// level 0, and recursion levels must use different bits.
	counts := map[int]int{}
	for h := uint64(0); h < 4096; h++ {
		counts[partitionOf(h*2654435761, 0, 16)]++
	}
	if len(counts) < 8 {
		t.Fatalf("level-0 partitioning too concentrated: %d partitions used", len(counts))
	}
	// A fixed level-0 partition's members must split at level 1.
	sub := map[int]int{}
	for h := uint64(0); h < 65536; h++ {
		v := h * 2654435761
		if partitionOf(v, 0, 16) == 3 {
			sub[partitionOf(v, 1, 16)]++
		}
	}
	if len(sub) < 8 {
		t.Fatalf("level-1 partitioning does not split level-0 buckets: %d partitions", len(sub))
	}
}
