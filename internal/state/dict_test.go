package state

import (
	"fmt"
	"sync"
	"testing"

	"opentla/internal/value"
)

func TestLocate(t *testing.T) {
	next := uint32(0)
	for seg := 0; seg < 6; seg++ {
		for off := uint64(0); off < segBase<<seg; off++ {
			if gs, goff := locate(next); gs != seg || goff != off {
				t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", next, gs, goff, seg, off)
			}
			next++
		}
	}
	if seg, off := locate(^uint32(0)); seg >= numSegs || off >= segBase<<seg {
		t.Fatalf("locate(max) = (%d, %d) is outside the segments", seg, off)
	}
}

// TestDictGrowsAcrossSegments interns enough values to fill several
// segments and reads every one back by code.
func TestDictGrowsAcrossSegments(t *testing.T) {
	base := s("dict.grow", value.Int(0))
	const n = 1000
	codes := make([]uint32, n)
	for i := range codes {
		ups := []PosUpdate{{Pos: 0, Val: value.Int(int64(i))}}
		base.Resolve(ups)
		codes[i] = ups[0].code
	}
	for i, c := range codes {
		if c == 0 {
			t.Fatalf("value %d got the reserved code 0", i)
		}
		if got := base.CloneWith([]PosUpdate{{Pos: 0, Val: value.Int(int64(i))}}).row[0]; got != c {
			t.Fatalf("value %d: code %d on re-intern, %d first", i, got, c)
		}
		if v := base.lay.dicts[0].entry(c).val; !v.Equal(value.Int(int64(i))) {
			t.Fatalf("code %d reads back %s, want %d", c, v, i)
		}
	}
}

// TestConcurrentInterning has many goroutines intern overlapping values
// into fresh dictionaries and build states from them at once. Equal values
// must get equal codes whichever goroutine interned them first, and states
// built by different goroutines must compare Equal with equal fingerprints.
// Run it with -race: it also checks that readers need no lock.
func TestConcurrentInterning(t *testing.T) {
	const goroutines, values = 8, 200
	names := []string{"conc.a", "conc.b", "conc.q"}
	val := func(i int) value.Value {
		if i%2 == 0 {
			return value.Int(int64(i))
		}
		return value.Tuple(value.Int(int64(i)), value.Str(fmt.Sprint(i)))
	}
	states := make([][]*State, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*State, values)
			for k := 0; k < values; k++ {
				i := (k + g*values/goroutines) % values // each goroutine starts elsewhere
				st := New(map[string]value.Value{names[0]: val(i), names[1]: val(values - 1 - i)})
				st = st.With(names[2], val(i))
				st.Fingerprint()
				out[i] = st
			}
			states[g] = out
		}(g)
	}
	wg.Wait()
	for i := 0; i < values; i++ {
		want := states[0][i]
		for g := 1; g < goroutines; g++ {
			got := states[g][i]
			if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() || got.lay != want.lay {
				t.Fatalf("value %d: goroutine %d built %s, goroutine 0 built %s", i, g, got, want)
			}
			for j := range got.row {
				if got.row[j] != want.row[j] {
					t.Fatalf("value %d, variable %s: codes %d and %d", i, got.lay.names[j], got.row[j], want.row[j])
				}
			}
		}
		if v := want.MustGet(names[2]); !v.Equal(val(i)) {
			t.Fatalf("value %d reads back %s", i, v)
		}
	}
}
