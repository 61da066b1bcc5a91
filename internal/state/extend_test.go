package state

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"opentla/internal/value"
)

// TestExtensionMatchesWithAll property-checks Extend against WithAll, the
// map-based construction it replaces, and Project against Drop: extra names
// interleave with the source names, and some extensions rebind source
// variables (which Extend overwrites and Project refuses).
func TestExtensionMatchesWithAll(t *testing.T) {
	names := []string{"b", "d", "f"}
	candidates := []string{"a", "c", "d", "e", "g"} // d is a source name
	pick := func(vals []uint8, i int) value.Value {
		if len(vals) == 0 {
			return value.Int(0)
		}
		return value.Int(int64(vals[i%len(vals)] % 3))
	}
	f := func(baseVals, extraVals []uint8, mask uint8, declare bool) bool {
		base := make(map[string]value.Value)
		for i, n := range names {
			base[n] = pick(baseVals, i)
		}
		st := New(base)
		var extra []string
		for i, n := range candidates {
			if mask&(1<<i) != 0 {
				extra = append(extra, n)
			}
		}
		// Extra names in reverse order: the extension keeps the caller's order.
		for i, j := 0, len(extra)-1; i < j; i, j = i+1, j-1 {
			extra[i], extra[j] = extra[j], extra[i]
		}
		var vals [][]value.Value
		if declare {
			vals = make([][]value.Value, len(extra))
			for j := range vals {
				vals[j] = []value.Value{value.Int(0), value.Int(1)} // 2 stays undeclared
			}
		}
		x, err := NewExtension(st.Layout(), extra, vals)
		if err != nil {
			t.Log(err)
			return false
		}
		ups := make([]PosUpdate, len(extra))
		want := make(map[string]value.Value, len(extra))
		for j, n := range extra {
			v := pick(extraVals, j)
			ups[j] = x.Update(j, v)
			if j%2 == 1 {
				if ups[j] = x.Resolve(j, v); ups[j].code == 0 {
					return false
				}
			}
			want[n] = v
		}
		wide, err := x.Extend(st, ups)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := st.WithAll(want)
		if !wide.Equal(ref) || wide.Fingerprint() != ref.Fingerprint() || wide.Layout() != x.Layout() {
			t.Logf("Extend(%s, %v) = %s, WithAll gives %s", st, want, wide, ref)
			return false
		}
		for j, n := range extra {
			if !wide.At(x.Pos(j)).Equal(want[n]) {
				return false
			}
		}
		var proj State
		err = x.Project(wide, &proj)
		if _, rebinds := want["d"]; rebinds {
			return err != nil
		}
		return err == nil && proj.Equal(st) && proj.Fingerprint() == st.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExtensionUpdateResolvesDeclaredValues: a declared value's update
// carries the code NewExtension resolved; any other value is left for
// Extend to intern.
func TestExtensionUpdateResolvesDeclaredValues(t *testing.T) {
	x, err := NewExtension(s("x", value.Int(0)).Layout(), []string{"$m"}, [][]value.Value{value.Bools()})
	if err != nil {
		t.Fatal(err)
	}
	if u := x.Update(0, value.True); u.code == 0 || u.Pos != x.Pos(0) {
		t.Errorf("declared value: update %+v, want a resolved code at %d", u, x.Pos(0))
	}
	if u := x.Update(0, value.Int(7)); u.code != 0 {
		t.Errorf("undeclared value: update %+v, want no code", u)
	}
	wide, err := x.Extend(s("x", value.Int(0)), []PosUpdate{x.Update(0, value.Int(7))})
	if err != nil || !wide.MustGet("$m").Equal(value.Int(7)) {
		t.Errorf("Extend with an undeclared value = %v, %v", wide, err)
	}
}

// TestExtensionLayoutErrors: every state an extension is handed must be on
// its layout; anything else is an error, never a silent slower path.
func TestExtensionLayoutErrors(t *testing.T) {
	src := s("x", value.Int(0), "y", value.Int(1))
	if _, err := NewExtension(Layout{}, []string{"m"}, nil); err == nil {
		t.Error("extension of the zero layout accepted")
	}
	if _, err := NewExtension(src.Layout(), []string{"m", "m"}, nil); err == nil {
		t.Error("repeated extra name accepted")
	}
	if _, err := NewExtension(src.Layout(), []string{"m"}, [][]value.Value{nil, nil}); err == nil {
		t.Error("value lists not matching the extra names accepted")
	}
	x, err := NewExtension(src.Layout(), []string{"m", "n"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ups := []PosUpdate{x.Update(0, value.True), x.Update(1, value.False)}
	for name, f := range map[string]func() error{
		"Extend off the source layout": func() error {
			_, err := x.Extend(s("x", value.Int(0)), ups)
			return err
		},
		"Extend with too few updates": func() error {
			_, err := x.Extend(src, ups[:1])
			return err
		},
		"Extend with updates out of order": func() error {
			_, err := x.Extend(src, []PosUpdate{ups[1], ups[0]})
			return err
		},
		"Project off the wide layout": func() error {
			return x.Project(src, New(nil))
		},
	} {
		if err := f(); err == nil || !strings.HasPrefix(err.Error(), "state: ") {
			t.Errorf("%s: error %v, want a state error", name, err)
		}
	}
}

// TestExtensionConcurrent extends and projects from many goroutines at
// once through one extension (run it under -race).
func TestExtensionConcurrent(t *testing.T) {
	src := s("a", value.Int(0), "z", value.Int(1))
	x, err := NewExtension(src.Layout(), []string{"m"}, [][]value.Value{value.Bools()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var proj State
			for i := 0; i < 200; i++ {
				wide, err := x.Extend(src, []PosUpdate{x.Update(0, value.Int(int64(g*1000+i)))})
				if err == nil {
					err = x.Project(wide, &proj)
				}
				if err != nil || !proj.Equal(src) {
					t.Errorf("goroutine %d: %v, projection %s", g, err, &proj)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
