package index

import (
	"math/rand"
	"slices"
	"testing"

	"ndss/internal/hash"
)

// TestPartitionOfSpreadsHashes checks range partitioning over the hash
// family's real output range: partitions ascend with the hash at every
// level (so partitions aggregated in order write lists in hash order),
// uniform hashes spread over the level-0 partitions, and a recursive
// re-partition splits its parent's sub-range into sub-ranges inside it.
func TestPartitionOfSpreadsHashes(t *testing.T) {
	const fanout = 16
	rng := rand.New(rand.NewSource(1))
	hs := make([]uint64, 4096)
	for i := range hs {
		hs[i] = uint64(rng.Int63n(hash.MersennePrime61))
	}
	hs = append(hs, 0, hash.MersennePrime61-1)
	slices.Sort(hs)

	used := map[int]bool{}
	for i, h := range hs {
		p := partitionOf(h, allHashes, fanout)
		if p < 0 || p >= fanout {
			t.Fatalf("hash %x: partition %d outside [0, %d)", h, p, fanout)
		}
		if i > 0 && p < partitionOf(hs[i-1], allHashes, fanout) {
			t.Fatalf("level 0: hash %x lands before the smaller hash %x", h, hs[i-1])
		}
		if sub := allHashes.sub(p, fanout); h < sub.lo || h >= sub.hi {
			t.Fatalf("hash %x in partition %d, outside its range [%x, %x)", h, p, sub.lo, sub.hi)
		}
		used[p] = true
	}
	if len(used) < fanout/2 {
		t.Fatalf("level-0 partitioning too concentrated: %d of %d partitions used", len(used), fanout)
	}

	// Every level-0 partition splits at level 1 into consecutive
	// sub-ranges inside it, and its members spread over them in order.
	for p := 0; p < fanout; p++ {
		parent := allHashes.sub(p, fanout)
		prev := parent.lo
		for q := 0; q < fanout; q++ {
			child := parent.sub(q, fanout)
			if child.lo != prev || child.hi < child.lo || child.hi > parent.hi {
				t.Fatalf("partition %d: sub-range %d [%x, %x) does not follow %x inside [%x, %x)",
					p, q, child.lo, child.hi, prev, parent.lo, parent.hi)
			}
			prev = child.hi
		}
		if prev != parent.hi {
			t.Fatalf("partition %d: sub-ranges end at %x, not at %x", p, prev, parent.hi)
		}
	}
	parent := allHashes.sub(3, fanout)
	members := []uint64{parent.lo, parent.hi - 1}
	for i := 0; i < 4096; i++ {
		members = append(members, parent.lo+uint64(rng.Int63n(int64(parent.hi-parent.lo))))
	}
	slices.Sort(members)
	sub := map[int]bool{}
	for i, h := range members {
		if p := partitionOf(h, allHashes, fanout); p != 3 {
			t.Fatalf("hash %x of partition 3's range lands in partition %d", h, p)
		}
		q := partitionOf(h, parent, fanout)
		if i > 0 && q < partitionOf(members[i-1], parent, fanout) {
			t.Fatalf("level 1: hash %x lands before the smaller hash %x", h, members[i-1])
		}
		if child := parent.sub(q, fanout); h < child.lo || h >= child.hi {
			t.Fatalf("level 1: hash %x in sub-partition %d, outside [%x, %x)", h, q, child.lo, child.hi)
		}
		sub[q] = true
	}
	if len(sub) < fanout/2 {
		t.Fatalf("level-1 partitioning does not split a level-0 partition: %d sub-partitions used", len(sub))
	}
}
