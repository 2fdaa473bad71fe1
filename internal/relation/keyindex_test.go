package relation

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// keyHashes are the hash functions TestKeyIndexMatchesMap indexes keys
// under: every key colliding, keys that differ only in the hash's top or
// bottom 8 bits, and sequential hashes.
var keyHashes = map[string]func(k int) uint64{
	"constant":   func(int) uint64 { return 42 },
	"top8":       func(k int) uint64 { return uint64(k%256)<<56 | 0x1234 },
	"bottom8":    func(k int) uint64 { return uint64(k%256) | 0xABCD<<32 },
	"sequential": func(k int) uint64 { return uint64(k) },
}

// TestKeyIndexMatchesMap: a stream of keys with repeats, each added on its
// first sighting, resolves to the same position a map gives it, under
// every hash function, with and without a reservation, and past it.
func TestKeyIndexMatchesMap(t *testing.T) {
	for name, hash := range keyHashes {
		for _, reserve := range []int{-1, 0, 100} {
			rng := rand.New(rand.NewSource(1))
			var ix KeyIndex
			if reserve >= 0 {
				ix.Reserve(reserve)
			}
			ref := map[int]int{}
			var keys []int // keys[pos] is the key added at pos
			probe := func(k int) (int, bool) {
				return ix.Find(hash(k), func(pos int) bool { return keys[pos] == k })
			}
			for i := 0; i < 2000; i++ {
				k := rng.Intn(600)
				pos, ok := probe(k)
				want, wantOK := ref[k]
				if ok != wantOK || ok && pos != want {
					t.Fatalf("%s reserve %d: key %d found at %d (%v), want %d (%v)", name, reserve, k, pos, ok, want, wantOK)
				}
				if !ok {
					ref[k] = len(keys)
					ix.Add(hash(k), len(keys))
					keys = append(keys, k)
				}
			}
			if len(keys) <= max(reserve, 0) {
				t.Fatalf("%s: %d keys never pass the reservation of %d", name, len(keys), reserve)
			}
			for k := 0; k < 700; k++ {
				pos, ok := probe(k)
				if want, wantOK := ref[k]; ok != wantOK || ok && pos != want {
					t.Fatalf("%s reserve %d: after the stream, key %d found at %d (%v), want %d (%v)", name, reserve, k, pos, ok, want, wantOK)
				}
			}
		}
	}
}

// TestKeyIndexReserveReuses: Reserve on a used index, smaller than its
// table, the same size and larger, under every hash function, leaves none
// of its keys findable; the index then resolves a stream of keys as a
// fresh one does; and reserving within the memory it holds allocates
// nothing.
func TestKeyIndexReserveReuses(t *testing.T) {
	for name, hash := range keyHashes {
		for _, reserve := range []int{10, 1000, 3000} {
			var used, fresh KeyIndex
			var old []int
			for k := 0; k < 1000; k++ {
				used.Add(hash(k), k)
				old = append(old, k)
			}
			used.Reserve(reserve)
			fresh.Reserve(reserve)
			for k := range old {
				if pos, ok := used.Find(hash(k), func(int) bool { return true }); ok {
					t.Fatalf("%s reserve %d: key %d of the earlier use found at %d", name, reserve, k, pos)
				}
			}
			rng := rand.New(rand.NewSource(2))
			var keys []int
			for i := 0; i < 3000; i++ {
				k := 500 + rng.Intn(900)
				eq := func(pos int) bool { return keys[pos] == k }
				pos, ok := used.Find(hash(k), eq)
				wantPos, wantOK := fresh.Find(hash(k), eq)
				if ok != wantOK || pos != wantPos {
					t.Fatalf("%s reserve %d: key %d found at %d (%v), a fresh index at %d (%v)", name, reserve, k, pos, ok, wantPos, wantOK)
				}
				if !ok {
					used.Add(hash(k), len(keys))
					fresh.Add(hash(k), len(keys))
					keys = append(keys, k)
				}
			}
		}
	}
	var ix KeyIndex
	ix.Reserve(2000)
	if allocs := testing.AllocsPerRun(10, func() {
		for _, n := range []int{2000, 50, 1000} {
			ix.Reserve(n)
			for k := 0; k < n; k++ {
				ix.Add(uint64(k), k)
			}
		}
	}); allocs != 0 {
		t.Errorf("reserving within the index's memory allocates %.0f times, want 0", allocs)
	}
}

// TestKeyIndexAllocs: a reserved index adds and finds without allocating;
// Reserve's two slices are all it holds. Under the race detector the Find
// closure allocates, so there only the finds are checked.
func TestKeyIndexAllocs(t *testing.T) {
	const n = 2000
	hash := func(k int) uint64 { return uint64(k) * 0xD6E8FEB86659FD93 }
	allocs := testing.AllocsPerRun(10, func() {
		var ix KeyIndex
		ix.Reserve(n)
		for k := 0; k < n; k++ {
			ix.Add(hash(k), k)
		}
		for k := 0; k < 2*n; k++ {
			if pos, ok := ix.Find(hash(k), func(pos int) bool { return pos == k }); ok != (k < n) || ok && pos != k {
				t.Fatalf("key %d found at %d (%v)", k, pos, ok)
			}
		}
	})
	if !raceEnabled && allocs > 2 {
		t.Errorf("Reserve(%d), %d adds and %d finds allocate %.0f times, want 2", n, n, 2*n, allocs)
	}
}

// BenchmarkKeyIndex indexes 2 000 distinct keys, each found once before
// it is added and once after, as a keyed merge of two fragments does.
func BenchmarkKeyIndex(b *testing.B) {
	const n = 2000
	hashes := make([]uint64, n)
	for k := range hashes {
		hashes[k] = HashRow(Row{value.NewInt(int64(k))}, []int{0})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ix KeyIndex
		ix.Reserve(n)
		for k, h := range hashes {
			if _, ok := ix.Find(h, func(pos int) bool { return pos == k }); !ok {
				ix.Add(h, k)
			}
		}
		for k, h := range hashes {
			if _, ok := ix.Find(h, func(pos int) bool { return pos == k }); !ok {
				b.Fatalf("key %d lost", k)
			}
		}
	}
}
