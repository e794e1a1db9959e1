package bitmat

import (
	"math/rand"
	"testing"
)

func TestVecOpsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(300) // spans 1..5 words incl. partial tails
		v := make(Vec, Words(universe))
		want := make([]bool, universe)
		for k := 0; k < 2*universe; k++ {
			i := rng.Intn(universe)
			if rng.Intn(3) == 0 {
				v.Clear(i)
				want[i] = false
			} else {
				v.Set(i)
				want[i] = true
			}
		}
		var got []int
		v.Range(func(i int) bool {
			got = append(got, i)
			return true
		})
		n := 0
		for i, w := range want {
			if v.Has(i) != w {
				t.Fatalf("trial %d: Has(%d) = %v, want %v", trial, i, !w, w)
			}
			if w {
				if n >= len(got) || got[n] != i {
					t.Fatalf("trial %d: Range visited %v, missing %d in order", trial, got, i)
				}
				n++
			}
		}
		if n != len(got) {
			t.Fatalf("trial %d: Range visited %d bits, want %d", trial, len(got), n)
		}
		v.Zero()
		for i := range want {
			if v.Has(i) {
				t.Fatalf("trial %d: bit %d survived Zero", trial, i)
			}
		}
	}
}

func TestVecRangeEarlyStop(t *testing.T) {
	v := make(Vec, Words(200))
	v.Set(77)
	v.Set(140)
	count := 0
	v.Range(func(i int) bool {
		count++
		return false // stop immediately
	})
	if count != 1 {
		t.Fatalf("range visited %d bits after stop", count)
	}
}
