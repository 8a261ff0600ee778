package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("synth|v1|fn%04d|tech=nw|opts=default", i)
	}
	return out
}

// TestRingDeterministic: ownership is a pure function of the member
// set — identical rings built in different orders agree on every key.
func TestRingDeterministic(t *testing.T) {
	r1 := NewRing([]string{"a", "b", "c"})
	r2 := NewRing([]string{"c", "a", "b", "a"}) // shuffled + dup
	for _, k := range keys(500) {
		o1, ok1 := r1.Owner(k)
		o2, ok2 := r2.Owner(k)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("owner mismatch for %q: %q/%v vs %q/%v", k, o1, ok1, o2, ok2)
		}
	}
	if r1.Size() != 3 || r2.Size() != 3 {
		t.Fatalf("Size() = %d, %d; want 3 (dedup)", r1.Size(), r2.Size())
	}
}

// TestRingEmptyAndSingleton: the degenerate shapes every caller must
// survive — no members (no owner) and one member (it owns everything).
func TestRingEmptyAndSingleton(t *testing.T) {
	empty := NewRing(nil)
	if _, ok := empty.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if got := empty.Replicas("k", 2); got != nil {
		t.Fatalf("empty ring Replicas = %v, want nil", got)
	}

	solo := NewRing([]string{"a"})
	for _, k := range keys(50) {
		if o, ok := solo.Owner(k); !ok || o != "a" {
			t.Fatalf("singleton Owner(%q) = %q, %v", k, o, ok)
		}
	}
	if got := solo.Replicas("k", 3); len(got) != 1 || got[0] != "a" {
		t.Fatalf("singleton Replicas = %v, want [a]", got)
	}
}

// TestRingBalance: with 64 vnodes per member no node should own a
// wildly disproportionate share. The bound is loose (3× fair share) —
// the point is catching a broken hash or sort, not certifying variance.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	counts := map[string]int{}
	ks := keys(3000)
	for _, k := range ks {
		o, _ := r.Owner(k)
		counts[o]++
	}
	fair := len(ks) / 3
	for id, c := range counts {
		if c == 0 {
			t.Fatalf("member %s owns nothing", id)
		}
		if c > 3*fair {
			t.Fatalf("member %s owns %d of %d keys (fair %d): badly unbalanced", id, c, len(ks), fair)
		}
	}
}

// TestRingReplicasDistinctOwnerFirst: Replicas returns distinct
// members with the owner in position zero — the forwarding ladder
// depends on both.
func TestRingReplicasDistinctOwnerFirst(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"})
	for _, k := range keys(200) {
		owner, _ := r.Owner(k)
		reps := r.Replicas(k, 3)
		if len(reps) != 3 {
			t.Fatalf("Replicas(%q, 3) len = %d", k, len(reps))
		}
		if reps[0] != owner {
			t.Fatalf("Replicas(%q)[0] = %q, owner = %q", k, reps[0], owner)
		}
		seen := map[string]bool{}
		for _, id := range reps {
			if seen[id] {
				t.Fatalf("Replicas(%q) has duplicate %q: %v", k, id, reps)
			}
			seen[id] = true
		}
	}
	// Asking for more replicas than members truncates to the member set.
	if got := r.Replicas("k", 10); len(got) != 4 {
		t.Fatalf("Replicas(k, 10) len = %d, want 4", len(got))
	}
}

// TestRingMinimalDisruption: removing one member of N must only move
// the keys that member owned — everything else keeps its owner. This
// is the property that makes peer cache-fill effective across
// membership churn.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]string{"a", "b", "c", "d"})
	without := NewRing([]string{"a", "b", "d"})
	moved, owned := 0, 0
	for _, k := range keys(2000) {
		before, _ := full.Owner(k)
		after, _ := without.Owner(k)
		if before == "c" {
			owned++
			if after == "c" {
				t.Fatalf("removed member still owns %q", k)
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if owned == 0 {
		t.Fatal("test vacuous: removed member owned no keys")
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member changed owner", moved)
	}
}
